package protocol

import (
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/netsim"
)

// Handle is a dense index into a Table's columns. Handles are reused
// after removal (free-list), so they identify a slot, not a peer
// lifetime; a removed peer's Handle() reports NoPeer.
type Handle int32

// NoPeer is the handle of a peer that is not in any table (removed).
const NoPeer Handle = -1

// Table owns the hot per-peer state of a live peer population as
// struct-of-arrays columns indexed by dense handles. The exchange tick
// integrates bandwidth by walking these contiguous arrays instead of
// chasing per-peer heap objects; *Peer survives as the API-boundary
// view, carrying the cold state (identity, partner list, block-mode
// buffer) plus its handle into the table.
//
// Slots freed by churn go on a free-list and are re-initialized on
// reuse, so the columns stay dense under sustained join/depart load.
type Table struct {
	// Hot columns, indexed by Handle.
	rate     []float64 // stream rate of the peer's channel (demand side)
	up       []float64 // host upload capacity, kbps
	down     []float64 // host download capacity, kbps
	share    []float64 // advertised per-receiver upload share after last tick
	quality  []float64 // playback-quality EWMA
	tickRecv []float64 // segments received during the current exchange tick
	tickSent []float64 // segments sent during the current exchange tick
	lastRecv []float64 // aggregate receive throughput over the previous tick
	lastSent []float64 // aggregate send throughput over the previous tick
	depth    []int32   // hop distance from origin servers (tree-push mode)
	server   []bool    // origin-server flag

	// store parks the partner-list arrays of departed peers, one slot
	// per handle: the next peer reusing a slot starts with warmed
	// capacity instead of growing fresh arrays from nil, so under
	// sustained churn the event plane stops allocating.
	store []partnerStore

	// peers resolves a handle to its boundary object, nil for a free
	// slot: partner entries name their far side by handle.
	peers  []*Peer
	byAddr map[isp.Addr]*Peer
	free   []Handle
	live   int

	// idKeys is the sort scratch behind the ascending-ID partner reads
	// (Partners, PartnerIDAt); see Peer.byID.
	idKeys []uint64
	// recIDs is the buffer Recommend returns its sample in.
	recIDs []isp.Addr
}

// Cols is a borrowed view of a table's hot columns, handed to the
// exchange kernels so they can integrate bandwidth over contiguous
// arrays. Indices are peer handles. The slices alias the table: they
// are invalidated by Add/Remove and must not be retained across calls.
type Cols struct {
	Rate     []float64
	Up       []float64
	Down     []float64
	Share    []float64
	Quality  []float64
	TickRecv []float64
	TickSent []float64
	LastRecv []float64
	LastSent []float64
	Depth    []int32
	Server   []bool
}

// NewTable returns an empty table with capacity preallocated for
// capHint peers.
func NewTable(capHint int) *Table {
	if capHint < 0 {
		capHint = 0
	}
	return &Table{byAddr: make(map[isp.Addr]*Peer, capHint)}
}

// Len returns the number of live peers.
func (t *Table) Len() int { return t.live }

// Cap returns the number of column slots (live + free).
func (t *Table) Cap() int { return len(t.rate) }

// Cols returns the hot-column view. See Cols for aliasing rules.
func (t *Table) Cols() Cols {
	return Cols{
		Rate:     t.rate,
		Up:       t.up,
		Down:     t.down,
		Share:    t.share,
		Quality:  t.quality,
		TickRecv: t.tickRecv,
		TickSent: t.tickSent,
		LastRecv: t.lastRecv,
		LastSent: t.lastSent,
		Depth:    t.depth,
		Server:   t.server,
	}
}

// Add creates protocol state for a joining peer (or server) in a fresh
// or recycled slot and returns its boundary object. The address must
// not already be present.
func (t *Table) Add(host netsim.Host, port uint16, channel string, rateKbps float64, joined time.Time) *Peer {
	var h Handle
	if n := len(t.free); n > 0 {
		h = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		h = Handle(len(t.rate))
		t.rate = append(t.rate, 0)
		t.up = append(t.up, 0)
		t.down = append(t.down, 0)
		t.share = append(t.share, 0)
		t.quality = append(t.quality, 0)
		t.tickRecv = append(t.tickRecv, 0)
		t.tickSent = append(t.tickSent, 0)
		t.lastRecv = append(t.lastRecv, 0)
		t.lastSent = append(t.lastSent, 0)
		t.depth = append(t.depth, 0)
		t.server = append(t.server, false)
		t.store = append(t.store, partnerStore{})
		t.peers = append(t.peers, nil)
	}
	t.rate[h] = rateKbps
	t.up[h] = host.Cap.UpKbps
	t.down[h] = host.Cap.DownKbps
	t.share[h] = host.Cap.UpKbps / 4
	t.quality[h] = 1 // optimistic start; decays immediately if unserved
	t.tickRecv[h] = 0
	t.tickSent[h] = 0
	t.lastRecv[h] = 0
	t.lastSent[h] = 0
	t.depth[h] = MaxDepth
	t.server[h] = false
	p := &Peer{
		Host:         host,
		Port:         port,
		Channel:      channel,
		JoinedAt:     joined,
		tab:          t,
		h:            h,
		partnerStore: t.store[h],
	}
	t.store[h] = partnerStore{}
	t.peers[h] = p
	t.byAddr[host.Addr] = p
	t.live++
	return p
}

// Remove tears down the peer's partnerships (DisconnectAll), frees its
// slot for reuse and detaches p from the table. After removal the
// peer's hot-state accessors are invalid (Handle reports NoPeer) and
// its partner list reads as empty: the list's storage is reclaimed for
// the slot's next occupant. The cold identity fields remain readable.
func (t *Table) Remove(p *Peer) {
	if p == nil || p.h == NoPeer {
		return
	}
	if p.tab != t {
		panic("protocol: Remove on peer from another table")
	}
	DisconnectAll(p)
	delete(t.byAddr, p.Host.Addr)
	t.peers[p.h] = nil
	t.free = append(t.free, p.h)
	t.live--
	t.store[p.h] = p.partnerStore
	p.partnerStore = partnerStore{}
	p.h = NoPeer
}

// Lookup returns the live peer with the given address, or nil.
func (t *Table) Lookup(addr isp.Addr) *Peer { return t.byAddr[addr] }

// Peer resolves a handle to its live peer, or nil if the slot is free.
// A partner entry's Handle always resolves: removal tears edges down, so
// a live entry never names a departed peer.
func (t *Table) Peer(h Handle) *Peer { return t.peers[h] }
