// Package service defines the component-based application service model of
// the QSA paper (§2.1): abstract services, concrete service instances with
// QoS vectors and resource requirements, and multi-hop applications
// (abstract service paths).
//
// The paper's redundancy property has two levels, both modeled here:
//
//  1. the same abstract service (e.g. "video player") has multiple service
//     *instances* (real player, windows media player, …), each with its own
//     Qin/Qout/R — package catalog generates these;
//  2. the same instance has copies on many physical peers — package
//     registry tracks (instance, provider peer) bindings.
package service

import (
	"fmt"

	"repro/internal/qos"
	"repro/internal/resource"
)

// Name identifies an abstract service ("video-server", "cn2en-translator").
type Name string

// Instance is one concrete implementation of an abstract service, with its
// QoS specification co-located as the paper assumes (§3.1).
type Instance struct {
	ID      string // unique, e.g. "app3/svc1#7"
	Service Name

	Qin  qos.Vector // accepted input QoS
	Qout qos.Vector // produced output QoS

	// R is the end-system resource requirement for hosting one session of
	// this instance ([cpu, memory] units).
	R resource.Vector

	// OutKbps is the network bandwidth requirement b of the edge carrying
	// this instance's output to its successor on the service path.
	OutKbps float64
}

// Validate checks structural sanity of the instance specification.
func (in *Instance) Validate() error {
	if in.ID == "" {
		return fmt.Errorf("service: instance with empty ID")
	}
	if in.Service == "" {
		return fmt.Errorf("service: instance %s with empty service name", in.ID)
	}
	if len(in.R) == 0 || !in.R.NonNegative() {
		return fmt.Errorf("service: instance %s has invalid resource requirement %v", in.ID, in.R)
	}
	if in.OutKbps < 0 {
		return fmt.Errorf("service: instance %s has negative bandwidth requirement", in.ID)
	}
	return nil
}

// CanFeed reports whether this instance's output satisfies next's input —
// the inter-component edge condition of QCS.
func (in *Instance) CanFeed(next *Instance) bool {
	return qos.Satisfies(in.Qout, next.Qin)
}

// String renders a short identifier.
func (in *Instance) String() string {
	return fmt.Sprintf("%s(%s)", in.ID, in.Service)
}

// Application is a distributed application: an abstract service path in
// service-aggregation-flow order, from the data source (index 0) to the
// last processing component before the user (index len−1). The user's host
// is the data sink; composition checks that the final component's Qout
// satisfies the user's end-to-end QoS requirement.
type Application struct {
	ID   string
	Path []Name
}

// Hops returns the hop count of the aggregation (number of
// application-level connections involving provider peers), which equals
// the path length.
func (a *Application) Hops() int { return len(a.Path) }

// Validate checks structural sanity of the application.
func (a *Application) Validate() error {
	if a.ID == "" {
		return fmt.Errorf("service: application with empty ID")
	}
	if len(a.Path) == 0 {
		return fmt.Errorf("service: application %s with empty path", a.ID)
	}
	seen := make(map[Name]bool, len(a.Path))
	for _, n := range a.Path {
		if n == "" {
			return fmt.Errorf("service: application %s has empty service name", a.ID)
		}
		if seen[n] {
			return fmt.Errorf("service: application %s repeats service %s", a.ID, n)
		}
		seen[n] = true
	}
	return nil
}

// Request is one user request for an application delivery.
type Request struct {
	App      *Application
	Level    qos.Level  // end-to-end QoS requirement (paper's 3 levels)
	UserQoS  qos.Vector // the sink-side requirement the last Qout must satisfy
	Duration float64    // session duration in minutes
}

// Validate checks structural sanity of the request.
func (r *Request) Validate() error {
	if r.App == nil {
		return fmt.Errorf("service: request without application")
	}
	if err := r.App.Validate(); err != nil {
		return err
	}
	if !r.Level.Valid() {
		return fmt.Errorf("service: request with invalid level %d", int(r.Level))
	}
	if r.Duration <= 0 {
		return fmt.Errorf("service: request with non-positive duration %v", r.Duration)
	}
	return nil
}
