package obs

import (
	"fmt"
	"sort"
)

// MergeSnapshots combines per-peer metric snapshots into one
// fleet-wide view: counters and gauges add by name, histograms add
// bucket-wise, and log-bucketed latency sketches merge exactly — so a
// cluster p99 is computed from combined data rather than averaging
// per-peer quantiles (which is statistically meaningless). Histograms
// that share a name but disagree on bucket bounds cannot be combined
// and are reported as an error.
func MergeSnapshots(snaps ...Snapshot) (Snapshot, error) {
	counters := map[string]uint64{}
	gauges := map[string]int64{}
	hists := map[string]HistogramValue{}
	lats := map[string]LatencyValue{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			gauges[g.Name] += g.Value
		}
		for _, h := range s.Histograms {
			cur, ok := hists[h.Name]
			if !ok {
				cp := h
				cp.Buckets = append([]Bucket(nil), h.Buckets...)
				hists[h.Name] = cp
				continue
			}
			if len(cur.Buckets) != len(h.Buckets) {
				return Snapshot{}, fmt.Errorf("obs: histogram %q: %d vs %d buckets", h.Name, len(cur.Buckets), len(h.Buckets))
			}
			for i, b := range h.Buckets {
				// Bounds must match bit for bit; a near-miss is a config mismatch.
				if cur.Buckets[i].Le != b.Le {
					return Snapshot{}, fmt.Errorf("obs: histogram %q: bound %g vs %g at bucket %d", h.Name, cur.Buckets[i].Le, b.Le, i)
				}
				cur.Buckets[i].Count += b.Count
			}
			cur.Count += h.Count
			cur.Sum += h.Sum
			cur.Over += h.Over
			hists[h.Name] = cur
		}
		for _, l := range s.Latencies {
			cur, ok := lats[l.Name]
			if !ok {
				lats[l.Name] = l
				continue
			}
			lats[l.Name] = cur.Merge(l)
		}
	}
	var out Snapshot
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: v})
	}
	for name, v := range gauges {
		out.Gauges = append(out.Gauges, GaugeValue{Name: name, Value: v})
	}
	for _, h := range hists {
		out.Histograms = append(out.Histograms, h)
	}
	for _, l := range lats {
		out.Latencies = append(out.Latencies, l)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	sort.Slice(out.Latencies, func(i, j int) bool { return out.Latencies[i].Name < out.Latencies[j].Name })
	return out, nil
}
