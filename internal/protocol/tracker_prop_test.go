package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// trackerModel is the property test's oracle: which channel each live
// handle is a member of, its ISP, and whether it volunteered. Handles
// are recycled LIFO, as Table recycles them, so a departed peer's
// handle soon names a new peer, usually in another channel.
type trackerModel struct {
	channel   map[Handle]string
	available map[Handle]bool
	free      []Handle
	next      Handle
}

var _propChannels = []string{"CCTV1", "CCTV4", "HNTV"}

// bootstrapCheck checks one Bootstrap result against the model: no
// requester, no duplicate, only current members of the channel (so no
// departed handle and none that now belongs to another channel), as
// many as the channel can supply, and members that never volunteered
// only once every volunteer is in the sample.
func (m *trackerModel) bootstrapCheck(ch string, self Handle, n int, got []Handle) error {
	var members, volunteers int
	for h, c := range m.channel {
		if c == ch && h != self {
			members++
			if m.available[h] {
				volunteers++
			}
		}
	}
	if want := min(n, members); len(got) != want {
		return fmt.Errorf("returned %d candidates, want min(n=%d, members=%d)", len(got), n, members)
	}
	seen := make(map[Handle]bool, len(got))
	padded, drawnVolunteers := false, 0
	for _, h := range got {
		switch {
		case h == self:
			return fmt.Errorf("returned the requester %d", h)
		case seen[h]:
			return fmt.Errorf("returned %d twice", h)
		case m.channel[h] != ch:
			return fmt.Errorf("returned %d, not a member of %s (model: %q)", h, ch, m.channel[h])
		}
		seen[h] = true
		if m.available[h] {
			drawnVolunteers++
		} else {
			padded = true
		}
	}
	if padded && drawnVolunteers < volunteers {
		return fmt.Errorf("padded from members with %d of %d volunteers undrawn", volunteers-drawnVolunteers, volunteers)
	}
	return nil
}

// TestTrackerHandleReuse drives random joins, leaves, availability
// changes and bootstraps over a small, recycled handle space and checks
// every Bootstrap against the model. It runs without and with locality
// bias, and with the stamp counter started just short of 2³² so it wraps
// mid-run; bootstrap sizes span both sample paths (rejection when the
// set holds more than four times the request, shuffle otherwise).
func TestTrackerHandleReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		bias float64
		gen  uint32
	}{
		{"bias-0", 0, 0},
		{"bias-0.5", 0.5, 0},
		{"bias-0.5-wrap", 0.5, math.MaxUint32 - 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			cfg := DefaultConfig()
			cfg.LocalityBias = tc.bias
			tr := NewTracker(cfg, rand.New(rand.NewSource(18)))
			tr.gen = tc.gen
			m := &trackerModel{channel: make(map[Handle]string), available: make(map[Handle]bool)}
			live := func() []Handle {
				out := make([]Handle, 0, len(m.channel))
				for h := Handle(0); h < m.next; h++ {
					if _, ok := m.channel[h]; ok {
						out = append(out, h)
					}
				}
				return out
			}
			join := func() {
				var h Handle
				if n := len(m.free); n > 0 {
					h, m.free = m.free[n-1], m.free[:n-1]
				} else {
					h, m.next = m.next, m.next+1
				}
				ch := _propChannels[rng.Intn(len(_propChannels))]
				m.channel[h] = ch
				tr.Join(ch, h)
				tr.SetISP(h, isp.All()[rng.Intn(3)])
				avail := rng.Intn(3) > 0
				tr.SetAvailable(ch, h, avail)
				m.available[h] = avail
			}
			for range 180 {
				join()
			}
			var rejection, shuffle int
			for step := 0; step < 20000; step++ {
				peers := live()
				h := peers[rng.Intn(len(peers))]
				ch := m.channel[h]
				switch op := rng.Intn(10); {
				case op < 2 && len(peers) > 60: // leave; the handle is reused by the next join
					tr.Leave(ch, h)
					delete(m.channel, h)
					delete(m.available, h)
					m.free = append(m.free, h)
				case op < 4 && len(peers) < 220:
					join()
				case op < 6:
					avail := rng.Intn(2) == 0
					tr.SetAvailable(ch, h, avail)
					m.available[h] = avail
					// Volunteering for a channel the peer is not in is
					// ignored.
					other := _propChannels[rng.Intn(len(_propChannels))]
					if other != ch {
						tr.SetAvailable(other, h, true)
					}
				default:
					n := 1 + rng.Intn(40)
					if avail := tr.AvailableCount(ch); avail > 4*n {
						rejection++
					} else {
						shuffle++
					}
					got := tr.Bootstrap(ch, h, n)
					if err := m.bootstrapCheck(ch, h, n, got); err != nil {
						t.Fatalf("step %d: Bootstrap(%s, %d, %d): %v", step, ch, h, n, err)
					}
				}
				if step%500 == 0 {
					for _, c := range _propChannels {
						var members, avail int
						for h, hc := range m.channel {
							if hc == c {
								members++
								if m.available[h] {
									avail++
								}
							}
						}
						if tr.MemberCount(c) != members || tr.AvailableCount(c) != avail {
							t.Fatalf("step %d: %s holds %d members, %d available; model %d, %d",
								step, c, tr.MemberCount(c), tr.AvailableCount(c), members, avail)
						}
					}
				}
			}
			if rejection < 100 || shuffle < 100 {
				t.Errorf("sample paths: %d rejection, %d shuffle draws; want both exercised", rejection, shuffle)
			}
			if tc.gen != 0 && tr.gen >= tc.gen {
				t.Errorf("stamp counter at %d never wrapped from %d", tr.gen, tc.gen)
			}
		})
	}
}

// TestBootstrapStampWrap pins the wrap: stamps written at generation 1
// must not read as taken once the counter wraps back to 1.
func TestBootstrapStampWrap(t *testing.T) {
	tr := newTestTracker()
	for h := Handle(1); h <= 5; h++ {
		tr.Join("CCTV1", h)
	}
	if got := tr.Bootstrap("CCTV1", 0, 10); len(got) != 5 || tr.gen != 1 {
		t.Fatalf("first Bootstrap = %v at generation %d, want all 5 members at 1", got, tr.gen)
	}
	tr.gen = math.MaxUint32
	if got := tr.Bootstrap("CCTV1", 0, 10); len(got) != 5 {
		t.Fatalf("Bootstrap across the wrap = %v, want all 5 members", got)
	}
	if tr.gen != 1 {
		t.Errorf("generation after the wrap = %d, want 1", tr.gen)
	}
}
