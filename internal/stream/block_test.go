package stream

import (
	"math/rand"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/protocol"
)

// blockExchange returns a block-mode exchange whose stripe is wide
// enough for single-supplier test topologies (real swarms stripe across
// ~7 suppliers; these tests wire one or two links).
func blockExchange() *Exchange {
	return NewExchange(Config{Mode: ModeBlock, SpreadFraction: 0.6}, rand.New(rand.NewSource(1)))
}

func TestBlockModeDeliversSegments(t *testing.T) {
	m := newMesh()
	server := m.add(1, 8000, true)
	p := m.add(2, 448, false)
	m.connect(p, server, 4000)

	e := blockExchange()
	for i := 0; i < 60; i++ {
		e.Tick(m.tab, m.peers, 5*time.Second)
	}
	if !p.Buffer.Valid() {
		t.Fatal("receiver window never initialized")
	}
	if p.Buffer.Fill() < 0.3 {
		t.Errorf("window fill %.2f after 5 minutes with an idle server", p.Buffer.Fill())
	}
	if p.QualityEWMA() < 0.8 {
		t.Errorf("playback continuity %.2f with ample supply", p.QualityEWMA())
	}
	if p.Partner(server.ID()).WinRecv == 0 {
		t.Error("per-link segment counters untouched in block mode")
	}
	if p.PlaySeg <= 0 {
		t.Error("playback never advanced")
	}
}

func TestBlockModeRespectsBudget(t *testing.T) {
	m := newMesh()
	s := m.add(1, 400, false) // can barely serve one stream
	s.Buffer.Reset(0)
	var receivers []*protocol.Peer
	for i := uint32(2); i <= 9; i++ {
		p := m.add(i, 448, false)
		m.connect(p, s, 4000)
		receivers = append(receivers, p)
	}
	e := newExchange(ModeBlock)
	for i := 0; i < 24; i++ {
		e.Tick(m.tab, m.peers, 5*time.Second)
	}
	budgetPerTick := SegOf(400, 5*time.Second)
	if s.TickSentSeg() > budgetPerTick+1 {
		t.Errorf("supplier sent %.0f segments in a tick, budget %.0f", s.TickSentSeg(), budgetPerTick)
	}
	// With one 400 kbps uploader for eight receivers, most must starve.
	starving := 0
	for _, r := range receivers {
		if r.QualityEWMA() < 0.5 {
			starving++
		}
	}
	if starving < 4 {
		t.Errorf("only %d of 8 receivers starving under 8x oversubscription", starving)
	}
}

func TestBlockModePropagatesThroughMesh(t *testing.T) {
	// Chain: server → a → b. b can only get segments a already holds.
	m := newMesh()
	server := m.add(1, 4000, true)
	a := m.add(2, 2000, false)
	bPeer := m.add(3, 2000, false)
	m.connect(a, server, 4000)
	m.connect(bPeer, a, 4000)

	e := blockExchange()
	for i := 0; i < 60; i++ {
		e.Tick(m.tab, m.peers, 5*time.Second)
	}
	if bPeer.QualityEWMA() < 0.5 {
		t.Errorf("second-hop peer continuity %.2f; relay failed", bPeer.QualityEWMA())
	}
	if got := bPeer.Partner(a.ID()).WinRecv; got == 0 {
		t.Error("no segments relayed a→b")
	}
	// a relayed segments it first fetched: what a sent must not exceed
	// what a received plus its window bootstrap. Nothing resets the
	// window counters here, so they count the whole run.
	if a.Partner(bPeer.ID()).WinSent > a.Partner(server.ID()).WinRecv+protocol.WindowSize {
		t.Error("relay sent more segments than it ever held")
	}
}

func TestBlockModeReportsRealBufferMap(t *testing.T) {
	m := newMesh()
	server := m.add(1, 8000, true)
	p := m.add(2, 448, false)
	m.connect(p, server, 4000)
	e := blockExchange()
	for i := 0; i < 24; i++ {
		e.Tick(m.tab, m.peers, 5*time.Second)
	}
	if p.Buffer.Bitmap() == 0 {
		t.Error("buffer map empty after two minutes of delivery")
	}
	if p.Buffer.Start() == 0 && p.PlaySeg > 100 {
		t.Error("window never slid forward with playback")
	}
}

func TestFlowModeLeavesWindowUntouched(t *testing.T) {
	m := newMesh()
	server := m.add(1, 8000, true)
	p := m.add(2, 448, false)
	m.connect(p, server, 4000)
	e := newExchange(ModeMesh)
	for i := 0; i < 5; i++ {
		e.Tick(m.tab, m.peers, time.Minute)
	}
	if p.Buffer.Valid() {
		t.Error("flow mode initialized a block-mode window")
	}
}
