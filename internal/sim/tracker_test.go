package sim

import (
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/protocol"
)

// TestTrackerMembersAreLivePeers is the stale-handle guard. Trackers
// name members by table handle, and a freed handle is reused by the next
// join, so a departure that skipped Leave would leave an entry that
// quietly names the handle's next occupant. At every virtual hour and
// after the run of churny scenarios, each channel's MemberCount summed
// over the trackers must equal its live peers plus its servers once per
// tracker (servers register at every tracker), and each tracker must
// hold exactly the live peers bound to it.
func TestTrackerMembersAreLivePeers(t *testing.T) {
	for _, tc := range []struct {
		name     string
		trackers int
		bias     float64
	}{
		{"trackers-1", 1, 0},
		{"trackers-4", 4, 0},
		{"trackers-4+locality-0.5", 4, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(nil)
			cfg.Duration = 3 * time.Hour
			cfg.Trackers = tc.trackers
			cfg.Protocol.LocalityBias = tc.bias
			cfg.Churn = ChurnConfig{
				MassDepartures: []MassDeparture{{Offset: 90 * time.Minute, Fraction: 0.4}},
				Flapping:       Flapping{Fraction: 0.3},
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(st Stats) {
				t.Helper()
				type key struct {
					tracker *protocol.Tracker
					channel string
				}
				peers, servers := make(map[key]int), make(map[string]int)
				for _, p := range s.peers {
					if p.IsServer() {
						servers[p.Channel]++
						continue
					}
					peers[key{s.trackerFor(p.ID()), p.Channel}]++
				}
				for _, ch := range s.wl.Channels().Channels() {
					sum, live := 0, servers[ch.Name]*len(s.trackers)
					for i, tr := range s.trackers {
						bound := peers[key{tr, ch.Name}]
						got, want := tr.MemberCount(ch.Name), bound+servers[ch.Name]
						if got != want {
							t.Errorf("t=%v tracker %d channel %s: %d members, %d live peers bound to it",
								st.Now, i, ch.Name, got, want)
						}
						sum += got
						live += bound
					}
					if sum != live {
						t.Errorf("t=%v channel %s: %d members over %d trackers, want %d",
							st.Now, ch.Name, sum, len(s.trackers), live)
					}
				}
			}
			s.cfg.Progress = check
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			check(st)
			if st.Flaps == 0 || st.MassDeparted == 0 {
				t.Fatalf("the run did not churn: %d flaps, %d mass-departed", st.Flaps, st.MassDeparted)
			}
		})
	}
}
