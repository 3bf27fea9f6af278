// Command qsastat explains a telemetry stream (the JSON-lines stream
// written by `qsasim -telemetry` or `qsapeer -telemetry`): one span tree
// per request, from which it reads why each aggregation request
// succeeded or failed, where its time went, and why each peer was
// chosen — or filtered — at each selection hop.
//
// Examples:
//
//	qsastat run.tel.jsonl                 # outcomes, failure reasons, latency by stage
//	qsastat -req 17 run.tel.jsonl         # request 17's span tree and critical path
//	qsastat -req 17 -hop 2 run.tel.jsonl  # candidate set of hop 2 only
//	qsastat -metrics run.metrics.json run.tel.jsonl
//	                                      # + hot-path cache effectiveness
//	qsastat -load a.load.json b.load.json # merge qsaload reports: fleet SLO table
//	qsastat -load -metrics p1.json,p2.json run.load.json
//	                                      # + server-side admission/shed breakdown
//
// The -metrics input is the JSON snapshot written by
// `qsasim -metrics-out` (the same shape qsapeer serves at /vars); from
// it the summary derives discovery-cache and compatibility-memo hit
// rates — the performance plane's effectiveness report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qsastat", flag.ContinueOnError)
	req := fs.Uint64("req", 0, "print this request's span tree and critical path (request IDs start at 1)")
	hop := fs.Int("hop", 0, "with -req: show only this 1-based hop's candidate decisions")
	met := fs.String("metrics", "", "metrics snapshot JSON (qsasim -metrics-out); adds a cache-effectiveness section")
	ld := fs.Bool("load", false, "serving-load mode: args are qsaload JSON reports (merged); -metrics takes comma-separated peer snapshots for the server-side view")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ld {
		if fs.NArg() < 1 {
			return fmt.Errorf("usage: qsastat -load [-metrics snap.json,...] <run.load.json> [more.load.json ...]")
		}
		return loadReport(out, fs.Args(), *met)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: qsastat [-req N [-hop H]] <telemetry.jsonl>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return err
	}
	rep, err := obs.Analyze(events)
	if err != nil {
		return err
	}
	if *req != 0 {
		return explain(out, rep, *req, *hop)
	}
	summarize(out, rep, events)
	if *met != "" {
		return cacheReport(out, *met)
	}
	return nil
}

// cacheReport reads a metrics snapshot and prints the performance
// plane's effectiveness: discovery-cache and compatibility-memo hit
// rates, plus the registry mutation epoch the cache keyed off.
func cacheReport(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	c := map[string]uint64{}
	for _, cv := range snap.Counters {
		c[cv.Name] = cv.Value
	}
	rate := func(hits, misses uint64) string {
		if hits+misses == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Fprintf(out, "\nhot-path caches:\n")
	fmt.Fprintf(out, "  discovery cache:  %d hits, %d misses (%s hit rate), %d epoch bumps\n",
		c["discovery.cache_hits"], c["discovery.cache_misses"],
		rate(c["discovery.cache_hits"], c["discovery.cache_misses"]),
		c["discovery.epoch_bumps"])
	fmt.Fprintf(out, "  feed memo:        %d hits, %d misses (%s hit rate)\n",
		c["compose.memo_feed_hits"], c["compose.memo_feed_misses"],
		rate(c["compose.memo_feed_hits"], c["compose.memo_feed_misses"]))
	fmt.Fprintf(out, "  user-QoS memo:    %d hits, %d misses (%s hit rate)\n",
		c["compose.memo_user_hits"], c["compose.memo_user_misses"],
		rate(c["compose.memo_user_hits"], c["compose.memo_user_misses"]))
	wireReport(out, c)
	return nil
}

// rpcTypes is the RPC vocabulary in wire order, mirroring
// netproto's message set (internal/wire).
var rpcTypes = []string{"join", "leave", "lookup", "probe", "select", "reserve", "release"}

// wireReport prints the wire-efficiency section: bytes on the wire per
// RPC type (with the per-message average, the number the binary codec
// exists to shrink) and the datagram reliability counters — fragments,
// retransmits, suppressed duplicates, integrity rejects. Silent when
// the snapshot has no wire counters (a JSON/TCP-era run).
func wireReport(out io.Writer, c map[string]uint64) {
	var total uint64
	for k, v := range c {
		if strings.HasPrefix(k, "wire.") {
			total += v
		}
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(out, "\nwire efficiency:\n")
	fmt.Fprintf(out, "  %-10s %12s %12s %14s\n", "rpc", "bytes sent", "bytes recv", "avg sent/msg")
	for _, m := range rpcTypes {
		sent, recv := c["wire.bytes_sent."+m], c["wire.bytes_recv."+m]
		if sent+recv == 0 {
			continue
		}
		avg := "n/a"
		if n := c["rpc."+m+".sent"]; n > 0 {
			avg = fmt.Sprintf("%.0fB", float64(sent)/float64(n))
		}
		fmt.Fprintf(out, "  %-10s %12d %12d %14s\n", m, sent, recv, avg)
	}
	if s, r := c["wire.bytes_sent.other"], c["wire.bytes_recv.other"]; s+r > 0 {
		fmt.Fprintf(out, "  %-10s %12d %12d\n", "other", s, r)
	}
	fmt.Fprintf(out, "  lookups failed:   %d (members left out of a discovery after retries)\n",
		c["discovery.lookup_failed"])
	fmt.Fprintf(out, "  fragments:        %d sent, %d received\n",
		c["wire.frags_sent"], c["wire.frags_recv"])
	fmt.Fprintf(out, "  retransmits:      %d\n", c["wire.retransmits"])
	fmt.Fprintf(out, "  dups dropped:     %d\n", c["wire.dups_dropped"])
	fmt.Fprintf(out, "  crc failures:     %d\n", c["wire.crc_failures"])
	fmt.Fprintf(out, "  packet rejects:   %d\n", c["wire.packet_rejects"])
}

// summarize prints the outcome of every request, the failure reasons
// and the latency of each span stage.
func summarize(out io.Writer, rep *obs.Report, events []obs.Event) {
	fmt.Fprintf(out, "%d events, %d requests, %d spans", len(events), len(rep.Requests), rep.Spans)
	if rep.Orphans > 0 {
		fmt.Fprintf(out, " (%d orphaned: parent missing from stream)", rep.Orphans)
	}
	fmt.Fprintf(out, "\n\noutcomes:\n")
	for _, sc := range rep.ByStage {
		label := sc.Stage
		if obs.IsFailure(sc.Stage) {
			label = "failed: " + sc.Stage
		}
		fmt.Fprintf(out, "  %-20s %6d\n", label, sc.N)
	}
	var retries, rpcRetries, recoverOK, recoverFail int
	for _, r := range rep.Requests {
		retries += r.Retries
	}
	for _, ev := range events {
		switch {
		case ev.Kind == obs.KindRetry:
			rpcRetries++
		case ev.Kind == obs.KindSpan && ev.Stage == obs.StageRecovery && ev.OK:
			recoverOK++
		case ev.Kind == obs.KindSpan && ev.Stage == obs.StageRecovery:
			recoverFail++
		}
	}
	fmt.Fprintf(out, "\nrecomposition retries: %d; rpc retransmits: %d\n", retries, rpcRetries)
	if recoverOK+recoverFail > 0 {
		fmt.Fprintf(out, "runtime recoveries: %d succeeded, %d failed\n", recoverOK, recoverFail)
	}
	// Failure digest: the terminal error of every failed request, grouped.
	errCounts := map[string]int{}
	var errOrder []string
	for _, r := range rep.Requests {
		if !obs.IsFailure(r.Outcome) || r.Err == "" {
			continue
		}
		key := fmt.Sprintf("[%s] %s", r.Outcome, r.Err)
		if errCounts[key] == 0 {
			errOrder = append(errOrder, key)
		}
		errCounts[key]++
	}
	if len(errOrder) > 0 {
		fmt.Fprintf(out, "\nfailure reasons:\n")
		for _, k := range errOrder {
			fmt.Fprintf(out, "  %4d× %s\n", errCounts[k], k)
		}
	}
	if len(rep.Latency) == 0 {
		return
	}
	fmt.Fprintf(out, "\nlatency by stage:\n")
	fmt.Fprintf(out, "  %-12s %8s %10s %10s %10s %10s\n", "stage", "count", "p50", "p99", "p999", "mean")
	for _, sl := range rep.Latency {
		v := sl.Value
		fmt.Fprintf(out, "  %-12s %8d %10.4g %10.4g %10.4g %10.4g\n",
			sl.Stage, v.Count, v.Quantile(0.5), v.Quantile(0.99), v.Quantile(0.999), v.Sum/float64(v.Count))
	}
	if v := rep.Latency[0].Value; rep.Latency[0].Stage == obs.SpanStageRequest && v.Sum == 0 {
		fmt.Fprintln(out, "  (request and stage rows are zero: simulated stages take no virtual time)")
	}
}

// explain prints one request's span tree, with each span's hop and
// retry events beneath it, its outcome and its critical path; with hop
// set, only that hop's candidate decisions.
func explain(out io.Writer, rep *obs.Report, id uint64, hop int) error {
	r := rep.Request(id)
	if r == nil {
		return fmt.Errorf("request %d not in trace (%d requests recorded)", id, len(rep.Requests))
	}
	fmt.Fprintf(out, "request %d", r.Req)
	if r.Root != nil {
		var meta []string
		for _, kv := range [][2]string{{"user", r.Root.Event.User}, {"app", r.Root.Event.App}, {"level", r.Root.Event.Level}} {
			if kv[1] != "" {
				meta = append(meta, kv[0]+" "+kv[1])
			}
		}
		if len(meta) > 0 {
			fmt.Fprintf(out, " (%s)", strings.Join(meta, ", "))
		}
	}
	fmt.Fprintf(out, "  trace %016x  %d spans\n", r.Trace, r.Spans)
	if hop != 0 {
		for _, ev := range r.Events {
			if ev.Kind == obs.KindHop && ev.Hop == hop {
				printEvent(out, ev, "  ")
			}
		}
	} else if r.Root != nil {
		onPath := make(map[*obs.SpanNode]bool)
		for _, n := range r.CriticalPath() {
			onPath[n] = true
		}
		printSpan(out, r.Root, 0, onPath)
		for _, n := range r.Orphans {
			fmt.Fprintf(out, "  (orphan)\n")
			printSpan(out, n, 1, nil)
		}
	}
	fmt.Fprintf(out, "outcome: %s", r.Outcome)
	if r.Err != "" {
		fmt.Fprintf(out, " — %s", r.Err)
	}
	if r.Session != "" {
		fmt.Fprintf(out, " (session %s", r.Session)
		if r.Recovered > 0 {
			fmt.Fprintf(out, ", %d components recovered", r.Recovered)
		}
		fmt.Fprint(out, ")")
	}
	fmt.Fprintln(out)
	if hop != 0 || r.Root == nil {
		return nil
	}
	var cp []string
	var cpTotal float64
	for _, n := range r.CriticalPath() {
		cp = append(cp, spanLabel(n.Event))
		cpTotal += n.SelfTime()
	}
	fmt.Fprintf(out, "critical path: %s (self-time total %.4g, root duration %.4g)\n",
		strings.Join(cp, " -> "), cpTotal, r.Root.Event.Duration)
	return nil
}

// spanLabel names a span for display: its stage (with hop and host
// when present), or "request" for the root.
func spanLabel(ev obs.Event) string {
	label := ev.Stage
	if ev.Parent == 0 {
		label = obs.SpanStageRequest
	}
	if ev.Hop > 0 {
		label += fmt.Sprintf("[hop %d]", ev.Hop)
	}
	if ev.At != "" {
		label += "@" + ev.At
	}
	return label
}

// printSpan prints n and its subtree, marking critical-path spans.
func printSpan(out io.Writer, n *obs.SpanNode, depth int, onPath map[*obs.SpanNode]bool) {
	mark := " "
	if onPath[n] {
		mark = "*"
	}
	ev := n.Event
	fmt.Fprintf(out, "  %s %s%-*s start=%-10.4g dur=%-10.4g", mark,
		strings.Repeat("  ", depth), 24-2*depth, spanLabel(ev), n.Start(), ev.Duration)
	switch {
	case ev.Err != "":
		fmt.Fprintf(out, " err=%s", ev.Err)
	case ev.OK:
		fmt.Fprint(out, " ok")
	}
	if ev.Attempt > 0 {
		fmt.Fprintf(out, " attempt=%d", ev.Attempt)
	}
	if len(ev.Path) > 0 {
		fmt.Fprintf(out, " path=[%s]", strings.Join(ev.Path, " "))
	}
	if ev.Cost != 0 {
		fmt.Fprintf(out, " cost=%.4f", ev.Cost)
	}
	if ev.Session != "" {
		fmt.Fprintf(out, " session=%s", ev.Session)
	}
	if ev.Chosen != "" {
		fmt.Fprintf(out, " chose=%s", ev.Chosen)
	}
	if ev.Peer != "" {
		fmt.Fprintf(out, " peer=%s", ev.Peer)
	}
	fmt.Fprintln(out)
	indent := strings.Repeat("  ", depth+3)
	for _, e := range n.Events {
		printEvent(out, e, indent)
	}
	for _, c := range n.Children {
		printSpan(out, c, depth+1, onPath)
	}
}

// printEvent prints a hop (with its candidates) or a retransmission.
func printEvent(out io.Writer, ev obs.Event, indent string) {
	switch ev.Kind {
	case obs.KindHop:
		fmt.Fprintf(out, "%shop %d at %s for %s: ", indent, ev.Hop, ev.At, ev.Inst)
		if ev.Chosen != "" {
			fmt.Fprintf(out, "chose %s (%s)\n", ev.Chosen, ev.Mode)
		} else {
			fmt.Fprintf(out, "no selectable peer\n")
		}
		for _, c := range ev.Cands {
			if c.Phi != 0 {
				fmt.Fprintf(out, "%s    cand %-22s Φ=%-8.4f %s\n", indent, c.Peer, c.Phi, c.Reason)
			} else {
				fmt.Fprintf(out, "%s    cand %-22s %s\n", indent, c.Peer, c.Reason)
			}
		}
	case obs.KindRetry:
		fmt.Fprintf(out, "%st=%-8.3f rpc %s to %s retransmitted (attempt %d)\n", indent, ev.T, ev.RPC, ev.Peer, ev.Attempt)
	default:
		fmt.Fprintf(out, "%st=%-8.3f %s to %s (attempt %d)\n", indent, ev.T, ev.Kind, ev.Peer, ev.Attempt)
	}
}
