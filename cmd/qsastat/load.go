package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
)

// loadReport is the `qsastat -load` mode: merge one or more qsaload
// JSON reports (independent workers or hosts — latency sketches
// combine exactly, so the fleet p99 is computed, never averaged) and
// print the serving-plane SLO table. With -metrics, per-peer metric
// snapshots are merged the same way and the server-side view rides
// along: admission and shed breakdowns, queue wait, and per-priority
// service latency.
func loadReport(out io.Writer, reportPaths []string, metricsPaths string) error {
	reports := make([]*load.Report, 0, len(reportPaths))
	for _, path := range reportPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rep load.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		reports = append(reports, &rep)
	}
	rep := load.MergeReports(reports...)
	fmt.Fprintf(out, "serving-plane report: %d generator file(s), schedule %s, offered %.0f req/s, wall %.2fs\n",
		len(reports), rep.Schedule, rep.RateRPS, rep.WallSec)
	fmt.Fprintf(out, "throughput %.1f ok/s\n\n", rep.Throughput())

	fmt.Fprintf(out, "client-side latency (end-to-end, includes retry waits):\n")
	fmt.Fprintf(out, "  %-14s %8s %8s %7s %6s %6s %10s %10s %10s\n",
		"class", "sent", "ok", "shed", "err", "drop", "p50", "p99", "p999")
	names := make([]string, 0, len(rep.Classes))
	for name := range rep.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		printClassRow(out, name, rep.Classes[name])
	}
	printClassRow(out, "TOTAL", &rep.Total)

	if metricsPaths == "" {
		return nil
	}
	snap, err := readSnapshots(metricsPaths)
	if err != nil {
		return err
	}
	serveReport(out, snap)
	return nil
}

func printClassRow(out io.Writer, name string, cs *load.ClassStats) {
	p50, p99, p999 := "n/a", "n/a", "n/a"
	if cs.Latency.Count > 0 {
		p50 = fmtQ(cs.Latency.Quantile(0.50))
		p99 = fmtQ(cs.Latency.Quantile(0.99))
		p999 = fmtQ(cs.Latency.Quantile(0.999))
	}
	fmt.Fprintf(out, "  %-14s %8d %8d %7d %6d %6d %10s %10s %10s\n",
		name, cs.Sent, cs.OK, cs.Shed, cs.Errors, cs.Dropped, p50, p99, p999)
}

// readSnapshots reads comma-separated obs.Snapshot JSON files (qsapeer
// /vars, qsasim -metrics-out) and merges them into one fleet view.
func readSnapshots(paths string) (obs.Snapshot, error) {
	var snaps []obs.Snapshot
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return obs.Snapshot{}, err
		}
		var s obs.Snapshot
		err = json.NewDecoder(f).Decode(&s)
		f.Close()
		if err != nil {
			return obs.Snapshot{}, fmt.Errorf("%s: %v", path, err)
		}
		snaps = append(snaps, s)
	}
	return obs.MergeSnapshots(snaps...)
}

// serveReport prints the server-side admission and latency section
// from a (merged) metrics snapshot. Silent when the snapshot has no
// serving counters (an admission-off run).
func serveReport(out io.Writer, snap obs.Snapshot) {
	c := map[string]uint64{}
	for _, cv := range snap.Counters {
		c[cv.Name] = cv.Value
	}
	lats := map[string]obs.LatencyValue{}
	for _, lv := range snap.Latencies {
		lats[lv.Name] = lv
	}
	admitted := c["serve.admitted"]
	var shed uint64
	shedReasons := make([]string, 0, 4)
	for name, v := range c {
		if rest, ok := strings.CutPrefix(name, "serve.shed."); ok && v > 0 {
			shed += v
			shedReasons = append(shedReasons, rest)
		}
	}
	if admitted+shed == 0 {
		fmt.Fprintf(out, "\nno serving counters in metrics snapshot (admission off?)\n")
		return
	}
	sort.Strings(shedReasons)
	fmt.Fprintf(out, "\nserver-side admission:\n")
	fmt.Fprintf(out, "  admitted %d, shed %d (%.1f%% shed)\n",
		admitted, shed, 100*float64(shed)/float64(admitted+shed))
	for _, r := range shedReasons {
		fmt.Fprintf(out, "    shed %-12s %d\n", r, c["serve.shed."+r])
	}
	if w, ok := lats["serve.queue_wait_seconds"]; ok && w.Count > 0 {
		fmt.Fprintf(out, "  queue wait (%d waited): p50 %s  p99 %s\n",
			w.Count, fmtQ(w.Quantile(0.50)), fmtQ(w.Quantile(0.99)))
	}
	fmt.Fprintf(out, "  service latency by priority class:\n")
	for class := 0; class <= 3; class++ {
		lv, ok := lats[fmt.Sprintf("serve.latency_seconds.p%d", class)]
		if !ok || lv.Count == 0 {
			continue
		}
		fmt.Fprintf(out, "    p%-2d %8d served  p50 %10s  p99 %10s  p999 %10s\n",
			class, lv.Count, fmtQ(lv.Quantile(0.50)), fmtQ(lv.Quantile(0.99)), fmtQ(lv.Quantile(0.999)))
	}
}

func fmtQ(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
