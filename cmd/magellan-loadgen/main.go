// Command magellan-loadgen replays a recorded trace (or the emit plane
// of a lifecycle journal) against a live trace-server fleet at a
// configurable rate, and reports ingest throughput per shard and
// end-to-end — the tool behind the "reports/sec vs shard count"
// experiments.
//
// Reports are routed exactly as deployed clients route them: by the
// fixed address-partitioning hash, so shard K of the fleet receives
// precisely the peers it owns.
//
//	magellan-loadgen -trace uusee.trace -addrs 127.0.0.1:9600,127.0.0.1:9601 \
//	    -rate 5000 -status http://127.0.0.1:9700/status
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "magellan-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("magellan-loadgen", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "uusee.trace", "input to replay: a binary trace file, or a lifecycle journal (.jsonl) whose emit events are re-synthesized into reports")
		addrsFlag = fs.String("addrs", "127.0.0.1:9600", "fleet UDP addresses, comma-separated in shard order")
		rate      = fs.Float64("rate", 0, "total send rate in reports/sec across all clients (0: unthrottled)")
		clients   = fs.Int("clients", 1, "concurrent sender clients; the replay set is striped across them")
		loop      = fs.Int("loop", 1, "passes over the replay set")
		statusURL = fs.String("status", "", "fleet /status URL; scraped before and after to report per-shard and end-to-end ingested reports/sec (empty: send-side rates only)")
		settle    = fs.Duration("settle", 500*time.Millisecond, "wait before the final -status scrape, letting ingest queues drain")
		waitReady = fs.String("wait-ready", "", "fleet /healthz URL; poll until it answers 200 before replaying (empty: start immediately)")
		waitMax   = fs.Duration("wait-max", 30*time.Second, "give up if -wait-ready has not answered 200 within this long")
		interval  = fs.Duration("interval", trace.DefaultReportInterval, "report interval for reconstructing emission times from a journal's epochs")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("magellan-loadgen"))
		return nil
	}
	// An empty entry (a trailing comma) would be a phantom shard that
	// reroutes every address.
	addrs := strings.Split(*addrsFlag, ",")
	if slices.Contains(addrs, "") {
		return fmt.Errorf("-addrs %q has an empty entry", *addrsFlag)
	}
	if !(*rate >= 0) {
		return fmt.Errorf("-rate must be ≥ 0, got %v", *rate)
	}
	if *clients < 1 {
		return fmt.Errorf("-clients must be ≥ 1, got %d", *clients)
	}
	if *loop < 1 {
		return fmt.Errorf("-loop must be ≥ 1, got %d", *loop)
	}

	if *waitReady != "" {
		if err := waitUntilReady(*waitReady, *waitMax); err != nil {
			return err
		}
	}

	reports, err := loadReplaySet(*tracePath, *interval)
	if err != nil {
		return err
	}
	if len(reports) == 0 {
		return fmt.Errorf("%s holds no replayable reports", *tracePath)
	}
	total := len(reports) * *loop
	fmt.Printf("replaying %d reports (%d × %d passes) against %d shard(s)\n",
		total, len(reports), *loop, len(addrs))

	// Dial every client before the clock starts: a client that cannot
	// reach the fleet fails the run instead of silently sending nothing.
	cls := make([]*trace.ShardedClient, *clients)
	for c := range cls {
		cl, err := trace.DialSharded(addrs...)
		if err != nil {
			for _, open := range cls[:c] {
				err = errors.Join(err, open.Close())
			}
			return fmt.Errorf("client %d: %w", c, err)
		}
		cls[c] = cl
	}

	before, haveBefore := scrapeStatus(*statusURL)

	// Each client owns a stride-spaced stripe of the replay set and its
	// own sockets (trace.Client is single-goroutine by design); the rate
	// budget is split evenly across clients.
	perClientRate := *rate / float64(*clients)
	var sendErrs atomic.Uint64
	shardSent := make([][]uint64, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := cls[c]
			defer cl.Close()
			sent := 0
			for pass := 0; pass < *loop; pass++ {
				for i := c; i < len(reports); i += *clients {
					if perClientRate > 0 {
						target := start.Add(time.Duration(float64(sent) / perClientRate * float64(time.Second)))
						if d := time.Until(target); d > 0 {
							time.Sleep(d)
						}
					}
					if err := cl.Submit(reports[i]); err != nil {
						sendErrs.Add(1)
					}
					sent++
				}
			}
			shardSent[c] = cl.Sent()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	perShard := make([]uint64, len(addrs))
	var sentTotal uint64
	for _, counts := range shardSent {
		for i, n := range counts {
			perShard[i] += n
			sentTotal += n
		}
	}
	secs := elapsed.Seconds()
	fmt.Printf("sent %d reports in %v — %.0f reports/sec end-to-end\n",
		sentTotal, elapsed.Round(time.Millisecond), float64(sentTotal)/secs)
	if n := sendErrs.Load(); n > 0 {
		fmt.Printf("send errors: %d\n", n)
	}

	var after fleetStatus
	haveAfter := false
	if *statusURL != "" {
		time.Sleep(*settle)
		after, haveAfter = scrapeStatus(*statusURL)
	}
	for i, n := range perShard {
		fmt.Printf("shard %d: sent %d (%.0f reports/sec)", i+1, n, float64(n)/secs)
		if haveBefore && haveAfter {
			fmt.Printf(", ingested %d (%.0f reports/sec)",
				after.shardReceived(i)-before.shardReceived(i),
				float64(after.shardReceived(i)-before.shardReceived(i))/secs)
		}
		fmt.Println()
	}
	if haveBefore && haveAfter {
		ingested := after.Received - before.Received
		fmt.Printf("ingested %d reports end-to-end — %.0f reports/sec\n",
			ingested, float64(ingested)/secs)
	}
	return nil
}

// loadReplaySet reads the reports to replay: every record of a binary
// trace (a torn tail ends the set at the last intact record — load
// generation should replay whatever survived), or one synthesized
// report per emit event of a lifecycle journal, carrying the identity
// the journal recorded (address, channel, epoch-reconstructed time).
func loadReplaySet(path string, interval time.Duration) ([]trace.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		events, err := obs.ReadEventsJSONL(f)
		if err != nil {
			return nil, fmt.Errorf("load journal: %w", err)
		}
		var reports []trace.Report
		for _, ev := range events {
			if ev.Stage != obs.StageEmit || ev.Verdict != obs.VerdictEmitted {
				continue
			}
			reports = append(reports, trace.Report{
				Time:    time.Unix(0, ev.ID.Epoch*int64(interval)).UTC(),
				Addr:    isp.Addr(ev.ID.Addr),
				Channel: ev.ID.Channel,
			})
		}
		return reports, nil
	}
	rd, err := trace.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	var reports []trace.Report
	for {
		rep, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return reports, nil
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "magellan-loadgen: %s: torn tail after %d reports: %v\n",
				path, len(reports), err)
			return reports, nil
		}
		reports = append(reports, rep)
	}
}

// waitUntilReady polls a /healthz URL until it answers 200 (the daemon
// finished construction and is accepting reports) or the deadline
// passes. Connection refusals and 503s both mean "not yet" — the
// daemon may still be binding its listener or already draining.
func waitUntilReady(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close() //magellan:allow erridle — probe body is discarded; only the status code matters
			if code == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("wait-ready: %s not ready after %v: %w", url, timeout, err)
			}
			return fmt.Errorf("wait-ready: %s not ready after %v", url, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fleetStatus is the slice of the daemon's /status body the loadgen
// reads: fleet-wide and per-shard received counts.
type fleetStatus struct {
	Received uint64 `json:"received"`
	Shards   []struct {
		Shard    int    `json:"shard"`
		Received uint64 `json:"received"`
	} `json:"shards"`
}

// shardReceived returns shard i's (0-based) received count; a
// standalone daemon has no shards array, so shard 0 falls back to the
// fleet-wide figure.
func (s fleetStatus) shardReceived(i int) uint64 {
	for _, sh := range s.Shards {
		if sh.Shard == i+1 {
			return sh.Received
		}
	}
	if i == 0 {
		return s.Received
	}
	return 0
}

// scrapeStatus fetches and decodes the daemon's /status; a scrape
// failure disables ingest-side reporting rather than failing the run.
func scrapeStatus(url string) (fleetStatus, bool) {
	var st fleetStatus
	if url == "" {
		return st, false
	}
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "magellan-loadgen: status scrape: %v\n", err)
		return st, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "magellan-loadgen: status scrape: %s\n", resp.Status)
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fmt.Fprintf(os.Stderr, "magellan-loadgen: status scrape: %v\n", err)
		return st, false
	}
	return st, true
}
