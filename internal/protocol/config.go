// Package protocol implements the UUSee peer-selection protocol the paper
// describes in Sec. 3.1: tracker-assisted bootstrap with up to 50 initial
// partners, quality-ranked selection of around 30 peers to actually
// request media from, availability-driven registration at the tracker,
// partner recommendation between neighbours, and tracker re-contact as a
// last resort when playback starves.
//
// The package holds peer and tracker state machines only; moving bytes
// across the mesh is the stream package's job, and wiring everything to
// virtual time is the sim package's.
package protocol

import "time"

// The deployed client's protocol constants: the values the paper states
// or implies for UUSee (Sec. 3.1).
const (
	// MaxBootstrap is the size of the initial partner set supplied by the
	// tracker ("up to 50").
	MaxBootstrap = 50
	// TargetActive is the number of most-suitable partners a peer selects
	// to request media blocks from ("around 30").
	TargetActive = 30
	// TrackerRefill is how many extra partners a starving peer asks the
	// tracker for.
	TrackerRefill = 10
	// RecommendSize is how many partners a neighbour recommends per
	// exchange.
	RecommendSize = 5
	// AvailabilityHeadroomKbps is the spare upload capacity a peer must
	// retain to register as available for new connections at the tracker.
	AvailabilityHeadroomKbps = 100
	// StarveQuality and StarveRounds define starvation: quality EWMA
	// below StarveQuality for StarveRounds consecutive maintenance rounds
	// triggers tracker re-contact.
	StarveQuality = 0.85
	StarveRounds  = 2
	// MaintInterval is the period of the maintenance loop (selection
	// refresh, recommendations, starvation checks).
	MaintInterval = 5 * time.Minute
)

// Config carries the protocol values an experiment varies.
type Config struct {
	// MaxPartners caps a peer's partner list; beyond it new connections
	// are refused.
	MaxPartners int

	// LocalityBias is the paper's "future work" extension: the fraction
	// of each bootstrap sample the tracker draws from the requester's
	// own ISP (when it knows peer ISPs). 0 — the deployed protocol — is
	// fully ISP-oblivious; the analyses then show clustering emerging
	// from link quality alone. Positive values let the
	// locality-bias experiment measure how much inter-ISP traffic an
	// ISP-aware tracker saves.
	LocalityBias float64
}

// DefaultConfig returns the deployed client's configuration.
func DefaultConfig() Config { return Config{MaxPartners: 80} }

// WithDefaults fills the zero fields of c from DefaultConfig. The
// tracker and the simulator both default through it.
func (c Config) WithDefaults() Config {
	if c.MaxPartners <= 0 {
		c.MaxPartners = DefaultConfig().MaxPartners
	}
	return c
}
