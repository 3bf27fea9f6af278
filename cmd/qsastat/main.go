// Command qsastat explains a telemetry decision trace (the JSON-lines
// stream written by `qsasim -telemetry` or `qsapeer -telemetry`): why
// each aggregation request succeeded or failed, and why each peer was
// chosen — or filtered — at each selection hop.
//
// Examples:
//
//	qsastat run.tel.jsonl                 # per-stage outcome summary
//	qsastat -req 17 run.tel.jsonl         # full storyline of request 17
//	qsastat -req 17 -hop 2 run.tel.jsonl  # candidate set of hop 2 only
//	qsastat -metrics run.metrics.json run.tel.jsonl
//	                                      # + hot-path cache effectiveness
//	qsastat -trace run.tel.jsonl          # SLO latency table + span reconciliation
//	qsastat -trace -req 17 run.tel.jsonl  # span timeline + critical path of request 17
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
	req := fs.Uint64("req", 0, "explain this request ID (trace IDs start at 1)")
	hop := fs.Int("hop", 0, "with -req: show only this 1-based hop's candidate decisions")
	met := fs.String("metrics", "", "metrics snapshot JSON (qsasim -metrics-out); adds a cache-effectiveness section")
	trc := fs.Bool("trace", false, "causal-span mode: SLO latency table and span/decision reconciliation; with -req, one request's span timeline and critical path")
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
	if *trc {
		return traceReport(out, events, rep, *req)
	}
	if *req != 0 {
		return explain(out, rep, *req, *hop)
	}
	if err := summarize(out, rep, events); err != nil {
		return err
	}
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

// summarize prints the per-stage outcome aggregation of the whole trace.
func summarize(out io.Writer, rep *obs.Report, events []obs.Event) error {
	fmt.Fprintf(out, "%d events, %d requests\n", len(events), rep.Total)
	fmt.Fprintf(out, "\noutcomes:\n")
	for _, sc := range rep.ByStage {
		if sc.N == 0 {
			continue
		}
		label := sc.Stage
		if isFailureStage(sc.Stage) {
			label = "failed: " + sc.Stage
		}
		fmt.Fprintf(out, "  %-20s %6d\n", label, sc.N)
	}
	var retries, rpcRetries, recoverOK, recoverFail int
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindRetry:
			if ev.RPC == "" {
				retries++
			} else {
				rpcRetries++
			}
		case obs.KindRecover:
			if ev.OK {
				recoverOK++
			} else {
				recoverFail++
			}
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
		if !r.Failed() || r.Err == "" {
			continue
		}
		key := fmt.Sprintf("[%s] %s", r.Stage, r.Err)
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
	return nil
}

func isFailureStage(stage string) bool {
	switch stage {
	case obs.StageDiscovery, obs.StageCompose, obs.StageSelection,
		obs.StageAdmission, obs.StageDeparture:
		return true
	}
	return false
}

// explain prints the decision storyline of one request.
func explain(out io.Writer, rep *obs.Report, id uint64, hop int) error {
	r := rep.Request(id)
	if r == nil {
		return fmt.Errorf("request %d not in trace (%d requests recorded)", id, rep.Total)
	}
	fmt.Fprintf(out, "request %d", r.Req)
	var meta []string
	if r.User != "" {
		meta = append(meta, "user "+r.User)
	}
	if r.App != "" {
		meta = append(meta, "app "+r.App)
	}
	if len(meta) > 0 {
		fmt.Fprintf(out, " (%s)", strings.Join(meta, ", "))
	}
	fmt.Fprintln(out)
	for _, ev := range r.Events {
		if hop != 0 && !(ev.Kind == obs.KindHop && ev.Hop == hop) {
			continue
		}
		printEvent(out, ev)
	}
	fmt.Fprintf(out, "outcome: %s", r.Stage)
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
	return nil
}

func printEvent(out io.Writer, ev obs.Event) {
	switch ev.Kind {
	case obs.KindRequest:
		if ev.Level != "" || ev.Duration != 0 {
			fmt.Fprintf(out, "  t=%-8.3f issued: level=%s duration=%.4g\n", ev.T, ev.Level, ev.Duration)
		} else {
			fmt.Fprintf(out, "  t=%-8.3f issued\n", ev.T)
		}
	case obs.KindCompose:
		if ev.OK {
			fmt.Fprintf(out, "  t=%-8.3f compose ok: %s (cost %.4f)\n", ev.T, strings.Join(ev.Path, " -> "), ev.Cost)
		} else {
			fmt.Fprintf(out, "  t=%-8.3f compose failed: %s\n", ev.T, ev.Err)
		}
	case obs.KindHop:
		fmt.Fprintf(out, "  t=%-8.3f hop %d at %s for %s: ", ev.T, ev.Hop, ev.At, ev.Inst)
		if ev.Chosen != "" {
			fmt.Fprintf(out, "chose %s (%s)\n", ev.Chosen, ev.Mode)
		} else {
			fmt.Fprintf(out, "no selectable peer\n")
		}
		for _, c := range ev.Cands {
			if c.Phi != 0 {
				fmt.Fprintf(out, "      cand %-22s Φ=%-8.4f %s\n", c.Peer, c.Phi, c.Reason)
			} else {
				fmt.Fprintf(out, "      cand %-22s %s\n", c.Peer, c.Reason)
			}
		}
	case obs.KindReserve:
		if ev.OK {
			fmt.Fprintf(out, "  t=%-8.3f reserve on %s ok\n", ev.T, ev.Peer)
		} else {
			fmt.Fprintf(out, "  t=%-8.3f reserve on %s failed: %s\n", ev.T, ev.Peer, ev.Err)
		}
	case obs.KindRetry:
		if ev.RPC != "" {
			fmt.Fprintf(out, "  t=%-8.3f rpc %s to %s retransmitted (attempt %d)\n", ev.T, ev.RPC, ev.Peer, ev.Attempt)
		} else {
			fmt.Fprintf(out, "  t=%-8.3f recomposing (attempt %d)\n", ev.T, ev.Attempt)
		}
	case obs.KindAdmit:
		fmt.Fprintf(out, "  t=%-8.3f admitted session %s on hosts [%s]\n", ev.T, ev.Session, strings.Join(ev.Path, " "))
	case obs.KindRecover:
		if ev.OK {
			fmt.Fprintf(out, "  t=%-8.3f recovered hop %d (%s) onto %s\n", ev.T, ev.Hop, ev.Inst, ev.Peer)
		} else {
			fmt.Fprintf(out, "  t=%-8.3f recovery of hop %d (%s) failed\n", ev.T, ev.Hop, ev.Inst)
		}
	case obs.KindEnd:
		if ev.OK {
			fmt.Fprintf(out, "  t=%-8.3f session completed\n", ev.T)
		} else {
			fmt.Fprintf(out, "  t=%-8.3f session failed: %s\n", ev.T, ev.Err)
		}
	case obs.KindFail:
		fmt.Fprintf(out, "  t=%-8.3f FAILED at %s: %s\n", ev.T, ev.Stage, ev.Err)
	default:
		fmt.Fprintf(out, "  t=%-8.3f %s\n", ev.T, ev.Kind)
	}
}
