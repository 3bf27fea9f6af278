// Command qsapeer runs one peer of the QSA network prototype — the
// paper's future-work item (§6) made concrete: real TCP peers doing
// discovery, probing, distributed hop-by-hop peer selection, and
// reservation-based admission.
//
// Start a grid (each in its own terminal or host):
//
//	qsapeer -listen 127.0.0.1:7001 -cpu 1000 -mem 1000 \
//	        -provide source=MPEG:20-30:50:40
//	qsapeer -listen 127.0.0.1:7002 -join 127.0.0.1:7001 \
//	        -provide player=SCREEN:20-30:30:30,accepts=MPEG
//
// Then aggregate from any peer:
//
//	qsapeer -listen 127.0.0.1:7010 -join 127.0.0.1:7001 \
//	        -aggregate source,player -minrate 15 -duration 1m
//
// The -provide syntax is service=outFormat:rateLo-rateHi:cpu:kbps with an
// optional ,accepts=FORMAT input constraint (RAW accepted by default).
//
// For sustained open-loop traffic (cmd/qsaload), turn on the serving
// plane: -admit-workers bounds concurrent aggregations, shedding with a
// retry-after hint past -admit-queue. See DESIGN.md §4.3.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/spec"
)

func parseProvide(entry string) (*service.Instance, error) {
	accepts := "RAW"
	main := entry
	if i := strings.Index(entry, ",accepts="); i >= 0 {
		accepts = entry[i+len(",accepts="):]
		main = entry[:i]
	}
	name, rest, ok := strings.Cut(main, "=")
	if !ok {
		return nil, fmt.Errorf("missing '=' in -provide %q", entry)
	}
	parts := strings.Split(rest, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("-provide %q: want outFormat:rateLo-rateHi:cpu:kbps", entry)
	}
	loS, hiS, ok := strings.Cut(parts[1], "-")
	if !ok {
		return nil, fmt.Errorf("-provide %q: rate range must be lo-hi", entry)
	}
	lo, err := strconv.ParseFloat(loS, 64)
	if err != nil {
		return nil, err
	}
	hi, err := strconv.ParseFloat(hiS, 64)
	if err != nil {
		return nil, err
	}
	cpu, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, err
	}
	kbps, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return nil, err
	}
	return &service.Instance{
		ID:      fmt.Sprintf("%s/%s", name, parts[0]),
		Service: service.Name(name),
		Qin:     qos.MustVector(qos.Sym("format", accepts), qos.Range("rate", 0, 1e9)),
		Qout:    qos.MustVector(qos.Sym("format", parts[0]), qos.Range("rate", lo, hi)),
		R:       resource.Vec2(cpu, cpu),
		OutKbps: kbps,
	}, nil
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		transport = flag.String("transport", "tcp", "transport: tcp, or udp (reliable datagrams, DESIGN.md §6.2)")
		codec     = flag.String("codec", "", "wire codec: json or binary (default: binary over udp, json over tcp)")
		mtu       = flag.Int("mtu", 0, "udp payload budget per datagram before fragmenting (default 1200)")
		join      = flag.String("join", "", "bootstrap peer address to join")
		cpu       = flag.Float64("cpu", 500, "CPU capacity units")
		mem       = flag.Float64("mem", 500, "memory capacity units")
		provide   = flag.String("provide", "", "comma-free ;-separated instance specs (see doc)")
		specFile  = flag.String("spec", "", "load instances to provide from a spec file (see internal/spec)")
		aggregate = flag.String("aggregate", "", "abstract service path to aggregate, comma-separated")
		minRate   = flag.Float64("minrate", 0, "minimum end-to-end rate required")
		duration  = flag.Duration("duration", time.Minute, "session duration")
		debugAddr = flag.String("debug-addr", "", "serve runtime metrics over HTTP at this address (/metrics text, /vars JSON)")
		teleOut   = flag.String("telemetry", "", "write the JSONL telemetry stream (a span tree per aggregation, a span per remote leg served) to this file (qsastat reads it)")
		admitWork = flag.Int("admit-workers", 0, "concurrent aggregations served before queueing (0 = admission control off, DESIGN.md §4.3)")
		admitQ    = flag.Int("admit-queue", 0, "bounded wait queue behind the admission workers; beyond it the least important request is shed (default 4x workers)")
	)
	flag.Parse()

	pcfg := netproto.Config{Listen: *listen, CPU: *cpu, Memory: *mem, Network: *transport, Codec: *codec}
	pcfg.Wire.MTU = *mtu
	pcfg.Admit = netproto.AdmitConfig{Workers: *admitWork, MaxQueue: *admitQ}
	if *debugAddr != "" {
		pcfg.Metrics = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	var teleFile *os.File
	if *teleOut != "" {
		f, err := os.Create(*teleOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		teleFile = f
		// The prototype timestamps with wall-clock seconds since process
		// start (the simulator uses its deterministic virtual clock).
		begin := time.Now()
		tracer = obs.NewTracer(f, func() float64 { return time.Since(begin).Seconds() })
		pcfg.Tracer = tracer
	}

	peer, err := netproto.Start(pcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer peer.Close()
	defer func() {
		if tracer == nil {
			return
		}
		if err := tracer.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
			return
		}
		fmt.Printf("wrote %d telemetry events to %s\n", tracer.Count(), teleFile.Name())
	}()
	fmt.Printf("qsapeer listening on %s (%s, cpu=%g mem=%g)\n", peer.Addr(), peer.Protocol(), *cpu, *mem)

	if *debugAddr != "" {
		srv := &http.Server{Addr: *debugAddr, Handler: obs.Handler(pcfg.Metrics)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "debug server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s/metrics\n", *debugAddr)
	}

	if *join != "" {
		if err := peer.Join(*join); err != nil {
			fmt.Fprintln(os.Stderr, "join:", err)
			os.Exit(1)
		}
		fmt.Printf("joined overlay via %s; members: %v\n", *join, peer.Members())
	}
	if *provide != "" {
		for _, entry := range strings.Split(*provide, ";") {
			in, err := parseProvide(strings.TrimSpace(entry))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if err := peer.Provide(in); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("providing %s (%s)\n", in.ID, in.Service)
		}
	}

	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		parsed, err := spec.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, in := range parsed.Instances {
			if err := peer.Provide(in); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("providing %s (%s) from %s\n", in.ID, in.Service, *specFile)
		}
	}

	if *aggregate != "" {
		var path []service.Name
		for _, s := range strings.Split(*aggregate, ",") {
			path = append(path, service.Name(strings.TrimSpace(s)))
		}
		userQoS := qos.MustVector(qos.Range("rate", *minRate, 1e9))
		plan, err := peer.Aggregate(path, userQoS, *duration)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggregate:", err)
			os.Exit(1)
		}
		fmt.Printf("aggregated session %s (cost %.4f):\n", plan.SessionID, plan.Cost)
		for i := range plan.Instances {
			fmt.Printf("  hop %d: %-20s on %s\n", i, plan.Instances[i], plan.Peers[i])
		}
		fmt.Printf("holding the session for %v...\n", *duration)
		time.Sleep(*duration)
		return
	}

	// Daemon mode: serve until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
