// Package trace implements the measurement pipeline of Sec. 3.2 of the
// paper: each stable peer (online ≥ 20 minutes) sends a UDP report to a
// standalone trace server every 10 minutes, carrying its IP address, the
// channel it watches, its buffer map, its total download/upload
// capacities, its instantaneous aggregate receiving/sending throughput,
// and its full partner list with per-partner segment counts.
//
// The package provides the report schema, a compact binary codec and a
// JSON-lines codec, an epoch-bucketed in-memory store that the analyzers
// consume, and a real UDP trace server/client pair so the pipeline can be
// exercised over actual sockets.
package trace

import (
	"errors"
	"fmt"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// DefaultReportInterval is the reporting period of the deployed client.
const DefaultReportInterval = 10 * time.Minute

// DefaultInitialDelay is how long a new peer waits before its first
// report, which is what makes reporters the "stable backbone" of the
// topology.
const DefaultInitialDelay = 20 * time.Minute

// PartnerRecord is one entry of a report's partner list: the partner's
// address and port, and the number of segments sent to and received from
// it since the previous report.
type PartnerRecord struct {
	Addr    isp.Addr `json:"addr"`
	Port    uint16   `json:"port"`
	SentSeg uint32   `json:"sentSeg"`
	RecvSeg uint32   `json:"recvSeg"`
}

// Report is one measurement report as received by the trace server.
type Report struct {
	// Time is the trace-server receipt time (virtual time in
	// simulations).
	Time time.Time `json:"time"`
	// Addr and Port identify the reporting peer; peers are identified by
	// IP address throughout the traces.
	Addr isp.Addr `json:"addr"`
	Port uint16   `json:"port"`
	// Channel is the channel the peer is watching.
	Channel string `json:"channel"`
	// UpKbps and DownKbps are the peer's estimated total capacities.
	UpKbps   float64 `json:"upKbps"`
	DownKbps float64 `json:"downKbps"`
	// RecvKbps and SentKbps are the instantaneous aggregate throughputs.
	RecvKbps float64 `json:"recvKbps"`
	SentKbps float64 `json:"sentKbps"`
	// BufferMap is the sliding-window occupancy bitmap (64 segments
	// ending at PlayPoint+63).
	BufferMap uint64 `json:"bufferMap"`
	// PlayPoint is the stream offset, in segments, of the window start.
	PlayPoint uint32 `json:"playPoint"`
	// Partners is the full partner list with per-partner segment counts.
	Partners []PartnerRecord `json:"partners"`
}

// Validate performs structural sanity checks on a decoded report.
func (r *Report) Validate() error {
	if r.Addr == 0 {
		return errors.New("trace: report with zero address")
	}
	if r.Channel == "" {
		return errors.New("trace: report with empty channel")
	}
	if r.Time.IsZero() {
		return errors.New("trace: report with zero time")
	}
	if len(r.Partners) > MaxPartnersPerReport {
		return fmt.Errorf("trace: report with %d partners exceeds limit %d",
			len(r.Partners), MaxPartnersPerReport)
	}
	return nil
}

// MaxPartnersPerReport bounds partner lists, protecting the server from
// malformed datagrams.
const MaxPartnersPerReport = 512

// Sink consumes reports. Implementations: Store (in-memory, for
// analysis), Writer (binary file), and Tee.
type Sink interface {
	Submit(Report) error
}

// Tee fans a report out to several sinks; the first error wins but all
// sinks are attempted.
type Tee []Sink

var _ Sink = Tee{}

// Submit implements Sink.
func (t Tee) Submit(r Report) error {
	var firstErr error
	for _, s := range t {
		if err := s.Submit(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Discard is a Sink that drops everything; useful for protocol-only
// simulations and benchmarks.
var Discard Sink = discard{}

type discard struct{}

func (discard) Submit(Report) error { return nil }
