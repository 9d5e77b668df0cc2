package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/stream"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// TestChurnScenarioDigests pins the exact trace bytes of the churn
// scenarios that exercise the partner store hardest: flapping peers
// rejoining under their old address, mass departures, the block and
// tree-push exchange modes, multiple trackers, locality-biased
// ranking, and a sharded flapping run. Same-build determinism tests
// cannot catch a refactor that changes these runs consistently; the
// digests can.
func TestChurnScenarioDigests(t *testing.T) {
	base := Config{Seed: 31, Duration: 3 * time.Hour, MeanConcurrency: 200, ExtraChannels: 3}
	flapping := Flapping{Fraction: 0.3}
	cases := []struct {
		name         string
		edit         func(*Config)
		want         string
		flaps, massd uint64 // checked when nonzero
	}{
		{"mass-departure+flapping", func(c *Config) {
			c.Churn = ChurnConfig{
				MassDepartures: []MassDeparture{{Offset: 90 * time.Minute, Fraction: 0.4}},
				Flapping:       flapping,
			}
		}, "a2f0b624896c979cbeb8544d88ca23278e750eef366d2594576cfbb7e8b7d047", 3056, 81},
		{"block", func(c *Config) { c.Mode = stream.ModeBlock }, "730234592a5c405120d85f516a9393207685d65d0285722d60d87d8a96c9b43a", 0, 0},
		{"tree-push", func(c *Config) { c.Mode = stream.ModeTreePush }, "1c5368e7a518dea8c1ca4f51d2d3570e58672b357a81be29100c96df8a939c71", 0, 0},
		{"trackers-4", func(c *Config) { c.Trackers = 4 }, "a85f1fdbc5863ff247aa6f032ac8a77cf4a642caf08e354a8eb73488323729cc", 0, 0},
		{"locality-0.5", func(c *Config) { c.Protocol.LocalityBias = 0.5 }, "a8bbf6ba10d512c5680838fd16ccf4bbe2382b2c40ef9d8dbd55489b753509b9", 0, 0},
		{"shards-3+flapping", func(c *Config) {
			c.Shards = 3
			c.Churn = ChurnConfig{Flapping: flapping}
		}, "8182ed1219d6873cda2548d0f7c80bc77b6cab9451ac7bbdc0f4b470da222255", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			tc.edit(&cfg)
			h := sha256.New()
			w, err := trace.NewWriter(h)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sink = w
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s: %s flaps=%d mass-departed=%d", tc.name, got, st.Flaps, st.MassDeparted)
			if got != tc.want {
				t.Errorf("trace digest %s, want %s", got, tc.want)
			}
			if tc.flaps != 0 && st.Flaps != tc.flaps {
				t.Errorf("flaps = %d, want %d", st.Flaps, tc.flaps)
			}
			if tc.massd != 0 && st.MassDeparted != tc.massd {
				t.Errorf("mass-departed = %d, want %d", st.MassDeparted, tc.massd)
			}
		})
	}
}
