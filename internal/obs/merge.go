package obs

import "sort"

// MergeSnapshots combines per-peer metric snapshots into one
// fleet-wide view: counters and gauges add by name, and log-bucketed
// latency sketches merge exactly — so a cluster p99 is computed from
// combined data rather than averaging per-peer quantiles (which is
// statistically meaningless). Every instrument merges, so the error is
// always nil; the signature stays for callers that check it.
func MergeSnapshots(snaps ...Snapshot) (Snapshot, error) {
	counters := map[string]uint64{}
	gauges := map[string]int64{}
	lats := map[string]LatencyValue{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			gauges[g.Name] += g.Value
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
	for _, l := range lats {
		out.Latencies = append(out.Latencies, l)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Latencies, func(i, j int) bool { return out.Latencies[i].Name < out.Latencies[j].Name })
	return out, nil
}
