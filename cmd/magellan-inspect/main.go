// Command magellan-inspect summarizes a binary trace file: time span,
// epochs, distinct peers, channel audiences, partner-list statistics —
// the quick look an operator takes before committing to a full analysis.
// With -peer it dumps one peer's report history instead. With -journal
// and -journey it reads a lifecycle journal (magellan-sim -journal-out)
// and reconstructs the full path — or the point of death — of one peer's
// reports.
//
//	magellan-inspect -trace uusee.trace
//	magellan-inspect -trace uusee.trace -peer 58.12.33.7
//	magellan-inspect -journal run.journal -journey 58.12.33.7
//	magellan-inspect -journal run.journal -journey 58.12.33.7:1934443
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/report"
	"github.com/magellan-p2p/magellan/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "magellan-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("magellan-inspect", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "uusee.trace", "input trace file")
		peerAddr  = fs.String("peer", "", "dump this peer's report history instead of the summary")
		topN      = fs.Int("top", 10, "number of channels to list")
		journal   = fs.String("journal", "", "lifecycle journal file (JSON lines) for -journey")
		journey   = fs.String("journey", "", "reconstruct this peer's report lifecycle from -journal (peer[:epoch])")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		_, err := fmt.Fprintln(out, buildinfo.String("magellan-inspect"))
		return err
	}

	if *journey != "" {
		if *journal == "" {
			return fmt.Errorf("-journey requires -journal")
		}
		return runJourney(out, *journal, *journey)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}

	if *peerAddr != "" {
		addr, err := isp.ParseAddr(*peerAddr)
		if err != nil {
			return err
		}
		return dumpPeer(out, rd, addr)
	}
	return summarize(out, rd, *topN)
}

func summarize(out io.Writer, rd *trace.Reader, topN int) error {
	var (
		count        int
		first, last  time.Time
		peers        = make(map[isp.Addr]struct{})
		channels     = make(map[string]int)
		partnerTotal int
		epochs       = make(map[int64]struct{})
	)
	for {
		rep, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		count++
		if first.IsZero() || rep.Time.Before(first) {
			first = rep.Time
		}
		if rep.Time.After(last) {
			last = rep.Time
		}
		peers[rep.Addr] = struct{}{}
		channels[rep.Channel]++
		partnerTotal += len(rep.Partners)
		epochs[trace.EpochOf(rep.Time, trace.DefaultReportInterval)] = struct{}{}
	}
	if count == 0 {
		return fmt.Errorf("trace holds no reports")
	}

	_, err := fmt.Fprintf(out,
		"reports:        %d\nspan:           %s → %s (%v)\nepochs (10m):   %d\ndistinct peers: %d\nmean partners:  %.1f per report\n\n",
		count,
		first.Format(time.RFC3339), last.Format(time.RFC3339), last.Sub(first).Round(time.Minute),
		len(epochs), len(peers), float64(partnerTotal)/float64(count))
	if err != nil {
		return err
	}

	type chCount struct {
		name string
		n    int
	}
	ranked := make([]chCount, 0, len(channels))
	for ch, n := range channels {
		ranked = append(ranked, chCount{name: ch, n: n})
	}
	slices.SortFunc(ranked, func(a, b chCount) int {
		if a.n != b.n {
			return b.n - a.n
		}
		return cmp.Compare(a.name, b.name)
	})
	if len(ranked) > topN {
		ranked = ranked[:topN]
	}
	rows := make([][]string, 0, len(ranked))
	for _, c := range ranked {
		rows = append(rows, []string{c.name, fmt.Sprintf("%d", c.n),
			fmt.Sprintf("%.1f%%", 100*float64(c.n)/float64(count))})
	}
	return report.Table(out, []string{"channel", "reports", "share"}, rows)
}

// parseJourney splits the -journey operand peer[:epoch].
func parseJourney(spec string) (addr isp.Addr, epoch int64, hasEpoch bool, err error) {
	peer := spec
	if i := strings.LastIndexByte(spec, ':'); i >= 0 {
		peer = spec[:i]
		epoch, err = strconv.ParseInt(spec[i+1:], 10, 64)
		if err != nil {
			return 0, 0, false, fmt.Errorf("malformed -journey epoch %q: %w", spec[i+1:], err)
		}
		hasEpoch = true
	}
	addr, err = isp.ParseAddr(peer)
	if err != nil {
		return 0, 0, false, err
	}
	return addr, epoch, hasEpoch, nil
}

// eventInstant renders an event timestamp. Sim journals carry virtual
// instants inside the trace window, wall journals real ones; both are
// Unix nanoseconds, so one rendering serves.
func eventInstant(at int64) string {
	return time.Unix(0, at).UTC().Format("2006-01-02 15:04:05.000")
}

// runJourney reconstructs one peer's report lifecycle from a journal
// file: every emission leg with its fault-plane events and terminal
// verdict, the store/seal-plane events matched by address, and the
// analysis consumption of the epochs involved.
func runJourney(out io.Writer, journalPath, spec string) error {
	addr, epoch, hasEpoch, err := parseJourney(spec)
	if err != nil {
		return err
	}
	f, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadEventsJSONL(f)
	if err != nil {
		return err
	}

	jo := obs.BuildJourney(events, uint32(addr), epoch, hasEpoch)
	if len(jo.Legs) == 0 && len(jo.Plane) == 0 {
		if hasEpoch {
			return fmt.Errorf("no lifecycle events for %s in epoch %d (journal holds %d events)", addr, epoch, len(events))
		}
		return fmt.Errorf("no lifecycle events for %s (journal holds %d events)", addr, len(events))
	}

	scope := addr.String()
	if hasEpoch {
		scope = fmt.Sprintf("%s epoch %d", addr, epoch)
	}
	if _, err := fmt.Fprintf(out, "journey for %s — %d report(s)\n", scope, len(jo.Legs)); err != nil {
		return err
	}
	for _, leg := range jo.Legs {
		if _, err := fmt.Fprintf(out, "\nreport seq %d, channel %s, epoch %d:\n",
			leg.ID.Seq, leg.ID.Channel, leg.ID.Epoch); err != nil {
			return err
		}
		for _, ev := range leg.Events {
			if _, err := fmt.Fprintf(out, "  %s  %-7s %s\n",
				eventInstant(ev.At), ev.Stage, ev.Verdict); err != nil {
				return err
			}
		}
		switch {
		case leg.Terminal == nil:
			if _, err := fmt.Fprintf(out, "  → no terminal verdict on record (ring overwrote it, or the run ended first)\n"); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(out, "  → terminal: %s at the %s plane\n",
				leg.Terminal.Verdict, leg.Terminal.Stage); err != nil {
				return err
			}
		}
	}
	if len(jo.Plane) > 0 {
		if _, err := fmt.Fprintf(out, "\nstore/seal plane (matched by address, sequence unknown):\n"); err != nil {
			return err
		}
		for _, ev := range jo.Plane {
			if _, err := fmt.Fprintf(out, "  %s  %-7s %-10s epoch %d\n",
				eventInstant(ev.At), ev.Stage, ev.Verdict, ev.ID.Epoch); err != nil {
				return err
			}
		}
	}
	if len(jo.Analyze) > 0 {
		if _, err := fmt.Fprintf(out, "\nanalysis consumption:\n"); err != nil {
			return err
		}
		for _, ev := range jo.Analyze {
			if _, err := fmt.Fprintf(out, "  %s  %-7s %-10s epoch %d\n",
				eventInstant(ev.At), ev.Stage, ev.Verdict, ev.ID.Epoch); err != nil {
				return err
			}
		}
	}
	return nil
}

func dumpPeer(out io.Writer, rd *trace.Reader, addr isp.Addr) error {
	found := 0
	for {
		rep, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if rep.Addr != addr {
			continue
		}
		found++
		active := 0
		for _, p := range rep.Partners {
			if p.RecvSeg > 10 || p.SentSeg > 10 {
				active++
			}
		}
		if _, err := fmt.Fprintf(out, "%s  ch=%s recv=%.0fkbps sent=%.0fkbps partners=%d active=%d buffer=%016x\n",
			rep.Time.Format("2006-01-02 15:04"), rep.Channel,
			rep.RecvKbps, rep.SentKbps, len(rep.Partners), active, rep.BufferMap); err != nil {
			return err
		}
	}
	if found == 0 {
		return fmt.Errorf("peer %s never reported", addr)
	}
	_, err := fmt.Fprintf(out, "%d reports from %s\n", found, addr)
	return err
}
