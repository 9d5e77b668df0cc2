package sim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/magellan-p2p/magellan/internal/des"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/netsim"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/protocol"
	"github.com/magellan-p2p/magellan/internal/stream"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// Simulation is one deterministic run of the UUSee overlay.
type Simulation struct {
	cfg      Config
	rng      *rand.Rand
	sched    *des.Scheduler
	wl       *workload.Workload
	network  *netsim.Network
	db       *isp.Database
	alloc    *isp.Allocator
	trackers []*protocol.Tracker
	ex       *stream.Exchange

	// tab holds every live peer's hot state as struct-of-arrays columns;
	// peers is the live list in insertion-with-swap-removal order (the
	// order the exchange and maintenance walk). posH and runH are the
	// position index and per-peer runtime, both indexed by table handle —
	// handles are dense, so these are flat slices, not maps.
	tab   *protocol.Table
	peers []*protocol.Peer
	posH  []int32
	runH  []*peerRuntime

	// pipe is the fault-injected report path; nil when injection is
	// disabled, in which case reports go straight to the sink.
	pipe *netsim.Pipe

	// metrics, when non-nil, receives Stats snapshots at tick
	// boundaries (see metrics.go). Strictly measurement-only.
	metrics *metrics

	// journal, when non-nil, records per-report lifecycle events, and
	// seqs carries each peer's lifetime emission counter for ReportID
	// minting. Both are measurement-only and nil when recording is off,
	// so the disabled path allocates nothing.
	journal *obs.Journal
	seqs    map[isp.Addr]uint32

	// ingestShards is the sharded ingest fleet size (0 or 1 when the run
	// feeds a single sink); report-path journal events carry the owning
	// shard's 1-based label when it is > 1.
	ingestShards int

	// Incrementally maintained aggregates: Stats() is O(1) amortized
	// instead of a full-population scan per tick. online counts live
	// non-server peers; stable counts those past the initial report
	// delay, advanced lazily by drainStable over the join-order queue.
	online     int
	stable     int
	stableQ    []*peerRuntime
	stableHead int
	pvs        float64 // cumulative peer-virtual-seconds integrated per tick

	servers      int
	joins        uint64
	reports      uint64
	flaps        uint64
	massDeparted uint64
	torn         uint64
}

type peerRuntime struct {
	peer   *protocol.Peer
	report *des.Ticker
	depart *des.Event
	// channel and flapsLeft carry a flapper's rejoin state: the channel
	// it returns to and how many bounces remain.
	channel   workload.Channel
	flapsLeft int
	// departed and stable drive the incremental online/stable counters:
	// departed marks a queue entry dead before the stability frontier
	// reaches it; stable records that the peer was counted, so removal
	// knows to decrement.
	departed bool
	stable   bool
}

// _ispBlocks is the number of /16 blocks in the generated ISP database.
const _ispBlocks = 1024

// New builds a simulation: generates the ISP database, seeds the origin
// servers, and arms the first arrival.
func New(cfg Config) (*Simulation, error) {
	cfg, err := cfg.sanitize()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	db, err := isp.Generate(rand.New(rand.NewSource(cfg.Seed+1)), isp.GenConfig{Blocks: _ispBlocks})
	if err != nil {
		return nil, fmt.Errorf("sim: generate ISP database: %w", err)
	}

	wl, err := workload.New(workload.Config{
		Seed:            cfg.Seed + 2,
		MeanConcurrency: cfg.MeanConcurrency,
		Channels:        workload.DefaultChannels(cfg.ExtraChannels),
		Crowds:          cfg.Crowds,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: workload: %w", err)
	}

	network := netsim.NewNetwork(uint64(cfg.Seed) + 3)
	network.ISPBlind = cfg.ISPBlind

	s := &Simulation{
		cfg:     cfg,
		rng:     rng,
		sched:   des.NewScheduler(cfg.Start),
		wl:      wl,
		network: network,
		db:      db,
		alloc:   isp.NewAllocator(rand.New(rand.NewSource(cfg.Seed+4)), db),
		ex: stream.NewExchange(stream.Config{
			Mode:   cfg.Mode,
			Shards: cfg.Shards,
		}, rand.New(rand.NewSource(cfg.Seed+6))),
		tab: protocol.NewTable(int(cfg.MeanConcurrency)),
	}
	for i := 0; i < cfg.Trackers; i++ {
		s.trackers = append(s.trackers,
			protocol.NewTracker(cfg.Protocol, rand.New(rand.NewSource(cfg.Seed+5+int64(i)))))
	}

	if cfg.Faults.Enabled() {
		s.pipe = netsim.NewPipe(cfg.Faults, rand.New(rand.NewSource(cfg.Seed+7)))
	}

	if cfg.Obs != nil {
		s.metrics = newMetrics(cfg.Obs)
	}

	if cfg.Journal != nil {
		s.journal = cfg.Journal
		s.seqs = make(map[isp.Addr]uint32)
	}
	s.ingestShards = len(cfg.ShardSinks)

	if err := s.seedServers(); err != nil {
		return nil, err
	}

	// Maintenance loop and first arrival.
	s.sched.Every(cfg.Start.Add(protocol.MaintInterval), protocol.MaintInterval, s.maintain)
	s.sched.At(s.wl.NextArrival(cfg.Start), s.handleArrival)

	// Churn scenario events.
	for _, md := range cfg.Churn.MassDepartures {
		md := md
		s.sched.At(cfg.Start.Add(md.Offset), func(t time.Time) { s.massDepart(md, t) })
	}

	return s, nil
}

// Database exposes the run's generated ISP database, which analyzers need
// to resolve peer addresses.
func (s *Simulation) Database() *isp.Database { return s.db }

// Workload exposes the run's workload (channel set, rates) for reports.
func (s *Simulation) Workload() *workload.Workload { return s.wl }

// trackerFor returns the tracking server a peer is bound to. The
// binding is by address hash, fixed for the peer's lifetime, as UUSee
// clients stuck to the tracker that bootstrapped them.
func (s *Simulation) trackerFor(addr isp.Addr) *protocol.Tracker {
	return s.trackers[int(uint32(addr))%len(s.trackers)]
}

// drainStable advances the stability frontier. Peers enter stableQ in
// join order, and virtual time only moves forward, so JoinedAt is
// non-decreasing along the queue: every entry up to the first live peer
// still inside its initial report delay is exactly the set the old
// full-population scan counted with JoinedAt ≤ now−delay.
func (s *Simulation) drainStable() {
	cutoff := s.sched.Now().Add(-trace.DefaultInitialDelay)
	for s.stableHead < len(s.stableQ) {
		rt := s.stableQ[s.stableHead]
		if !rt.departed && rt.peer.JoinedAt.After(cutoff) {
			break
		}
		s.stableHead++
		if rt.departed {
			continue
		}
		rt.stable = true
		s.stable++
	}
	// Compact once the drained prefix dominates, keeping the queue
	// proportional to the undrained population.
	if s.stableHead > 1024 && 2*s.stableHead >= len(s.stableQ) {
		s.stableQ = append(s.stableQ[:0], s.stableQ[s.stableHead:]...)
		s.stableHead = 0
	}
}

// Stats summarizes the live overlay. All aggregates are maintained
// incrementally at join/depart events, so this is O(1) amortized — no
// population scan.
func (s *Simulation) Stats() Stats {
	s.drainStable()
	st := Stats{
		Now:                s.sched.Now(),
		Online:             s.online,
		Stable:             s.stable,
		Servers:            s.servers,
		Joins:              s.joins,
		Reports:            s.reports,
		Flaps:              s.flaps,
		MassDeparted:       s.massDeparted,
		TornReports:        s.torn,
		PeerVirtualSeconds: s.pvs,
	}
	if s.pipe != nil {
		st.Faults = s.pipe.Tally()
	}
	return st
}

// Run executes the configured span: discrete events (joins, departures,
// reports, maintenance) interleaved with fixed bandwidth-integration
// ticks.
func (s *Simulation) Run() error {
	end := s.cfg.Start.Add(s.cfg.Duration)
	nextProgress := s.cfg.Start.Add(time.Hour)
	for now := s.cfg.Start; now.Before(end); {
		tickEnd := now.Add(s.cfg.Tick)
		if tickEnd.After(end) {
			tickEnd = end
		}
		s.sched.RunUntil(tickEnd)
		dt := tickEnd.Sub(now)
		s.ex.Tick(s.tab, s.peers, dt)
		s.pvs += float64(s.online) * dt.Seconds()
		now = tickEnd

		if s.metrics != nil {
			s.metrics.publish(s.cfg.Start, s.Stats())
		}
		if s.cfg.Progress != nil && !now.Before(nextProgress) {
			s.cfg.Progress(s.Stats())
			nextProgress = nextProgress.Add(time.Hour)
		}
	}
	// Release any reports still held by the reorder queue so a run's last
	// datagrams are not lost with the traffic stream.
	if s.pipe != nil {
		s.pipe.Flush(end)
	}
	if s.metrics != nil {
		s.metrics.publish(s.cfg.Start, s.Stats())
	}
	return nil
}

// Every channel gets _serversPerChannel origin servers of _serverUpKbps
// upload capacity each: about ten peers' worth of seeding per server.
const (
	_serversPerChannel = 2
	_serverUpKbps      = 4096
)

// seedServers places origin servers in every channel and registers them
// as always-available at the tracker.
func (s *Simulation) seedServers() error {
	// Servers are spread across ISPs round-robin: UUSee operated "a large
	// collection of streaming servers around the world".
	isps := isp.All()
	i := 0
	for _, ch := range s.wl.Channels().Channels() {
		for k := 0; k < _serversPerChannel; k++ {
			owner := isps[i%len(isps)]
			i++
			addr, err := s.alloc.Alloc(owner)
			if err != nil {
				return fmt.Errorf("sim: allocate server address: %w", err)
			}
			host := netsim.Host{
				Addr: addr,
				ISP:  owner,
				Cap:  netsim.Capacity{UpKbps: _serverUpKbps, DownKbps: _serverUpKbps},
			}
			srv := s.tab.Add(host, 8000, ch.Name, 0, s.cfg.Start)
			srv.MarkServer()
			srv.SetDepth(0)
			s.insert(srv)
			s.servers++
			for _, tr := range s.trackers {
				tr.Join(ch.Name, srv.Handle())
				tr.SetISP(srv.Handle(), owner)
				tr.SetAvailable(ch.Name, srv.Handle(), true)
			}
		}
	}
	return nil
}

// handleArrival creates one peer and chains the next arrival event.
func (s *Simulation) handleArrival(now time.Time) {
	s.sched.At(s.wl.NextArrival(now), s.handleArrival)

	owner := isp.SampleISP(s.rng, isp.DefaultShares())
	addr, err := s.alloc.Alloc(owner)
	if err != nil {
		// Address mass exhausted for this ISP: skip the arrival. This is
		// unreachable at supported scales but must not kill the run.
		return
	}
	class := netsim.SampleClass(s.rng)
	host := netsim.Host{Addr: addr, ISP: owner, Cap: netsim.SampleCapacity(s.rng, class)}
	ch := s.wl.SampleChannel(now)
	session := s.wl.SampleSession()

	flapsLeft := 0
	if f := s.cfg.Churn.Flapping.Fraction; f > 0 && s.rng.Float64() < f {
		flapsLeft = _flapCycles
		session = flapOnTime(s.rng)
	}
	s.joinPeer(host, ch, session, flapsLeft, now)
}

// joinPeer brings one peer online: register at its tracker, bootstrap,
// arm its departure and report timers. Shared by first arrivals and
// flapper rejoins.
func (s *Simulation) joinPeer(host netsim.Host, ch workload.Channel, session time.Duration, flapsLeft int, now time.Time) {
	p := s.tab.Add(host, uint16(1024+s.rng.Intn(60000)), ch.Name, ch.RateKbps, now)
	p.LocalityBias = s.cfg.Protocol.LocalityBias

	rt := s.insert(p)
	s.joins++
	tr := s.trackerFor(host.Addr)
	tr.Join(ch.Name, p.Handle())
	tr.SetISP(p.Handle(), host.ISP)
	tr.SetAvailable(ch.Name, p.Handle(), true)

	s.bootstrap(p, protocol.MaxBootstrap, now)

	rt.channel = ch
	rt.flapsLeft = flapsLeft
	rt.depart = s.sched.At(now.Add(session), func(t time.Time) { s.handleDeparture(p, t) })
	rt.report = s.sched.Every(now.Add(trace.DefaultInitialDelay), trace.DefaultReportInterval,
		func(t time.Time) { s.emitReport(p, t) })
}

// bootstrap asks the tracker for candidates and connects to them. The
// tracker names members by table handle, and every member is live:
// departures leave the tracker before their handle is freed.
func (s *Simulation) bootstrap(p *protocol.Peer, n int, now time.Time) {
	for _, h := range s.trackerFor(p.ID()).Bootstrap(p.Channel, p.Handle(), n) {
		q := s.tab.Peer(h)
		link := s.network.Link(p.Host, q.Host)
		protocol.Connect(p, q, link, s.cfg.Protocol)
	}
}

// handleDeparture tears a peer down: deregister, stop its timers, and
// remove it from the live set, which disconnects it everywhere. A flapper's departure also
// schedules its rejoin. The rt.peer identity check makes stale departure
// events (a mass departure already removed the peer, or a rejoin reused
// its address) harmless no-ops.
func (s *Simulation) handleDeparture(p *protocol.Peer, now time.Time) {
	h := p.Handle()
	if h == protocol.NoPeer {
		return
	}
	rt := s.runH[h]
	if rt == nil || rt.peer != p {
		return
	}
	// Hot-state reads are invalid once the table slot is freed; capture
	// what the teardown needs first. The tracker entries go before the
	// handle is freed for reuse.
	isServer := p.IsServer()
	if isServer {
		for _, tr := range s.trackers {
			tr.Leave(p.Channel, h)
		}
	} else {
		s.trackerFor(p.ID()).Leave(p.Channel, h)
	}
	if rt.report != nil {
		rt.report.Stop()
	}
	s.sched.Cancel(rt.depart)
	s.remove(p)

	if !isServer && rt.flapsLeft > 0 {
		host, ch, left := p.Host, rt.channel, rt.flapsLeft-1
		s.flaps++
		s.sched.At(now.Add(flapOffTime(s.rng)), func(t time.Time) { s.rejoin(host, ch, left, t) })
	}
}

// rejoin brings a flapper back with the same address and channel.
func (s *Simulation) rejoin(host netsim.Host, ch workload.Channel, flapsLeft int, now time.Time) {
	if s.tab.Lookup(host.Addr) != nil {
		// The address is somehow occupied (cannot happen today: the
		// allocator never reissues addresses); joining twice would
		// corrupt the live set, so skip the bounce.
		return
	}
	s.joinPeer(host, ch, flapOnTime(s.rng), flapsLeft, now)
}

// massDepart fires one mass-departure event: every live non-server peer
// leaves with the configured probability.
func (s *Simulation) massDepart(md MassDeparture, now time.Time) {
	var victims []*protocol.Peer
	for _, p := range s.peers {
		if !p.IsServer() && s.rng.Float64() < md.Fraction {
			victims = append(victims, p)
		}
	}
	for _, p := range victims {
		s.handleDeparture(p, now)
		s.massDeparted++
	}
}

// emitReport assembles and submits one trace report for a stable peer.
func (s *Simulation) emitReport(p *protocol.Peer, now time.Time) {
	rep := trace.Report{
		Time:     now,
		Addr:     p.ID(),
		Port:     p.Port,
		Channel:  p.Channel,
		UpKbps:   p.Host.Cap.UpKbps,
		DownKbps: p.Host.Cap.DownKbps,
		RecvKbps: p.LastRecvKbps(),
		SentKbps: p.LastSentKbps(),
	}
	if p.Buffer.Valid() {
		// Block mode: the report carries the peer's real buffer map.
		rep.BufferMap = p.Buffer.Bitmap()
		rep.PlayPoint = uint32(p.PlaySeg)
	} else {
		rep.BufferMap = s.synthBufferMap(p.QualityEWMA())
		rep.PlayPoint = uint32(stream.SegOf(p.RateKbps(), now.Sub(s.cfg.Start)))
	}
	rep.Partners = make([]trace.PartnerRecord, 0, p.PartnerCount())
	p.Partners(func(pt *protocol.Partner) {
		rep.Partners = append(rep.Partners, trace.PartnerRecord{
			Addr:    pt.ID,
			Port:    pt.Port,
			SentSeg: uint32(pt.WinSent + 0.5),
			RecvSeg: uint32(pt.WinRecv + 0.5),
		})
	})

	// Flight recorder: mint the report's stable identity at the moment of
	// emission — address, channel, emission epoch, and the peer's lifetime
	// emission sequence — and stamp the event with the virtual tick. The
	// counter map is maintained only while recording, so the disabled path
	// costs nothing.
	var id obs.ReportID
	if s.journal != nil {
		addr := p.ID()
		s.seqs[addr]++
		id = obs.ReportID{
			Addr:    uint32(addr),
			Channel: p.Channel,
			Epoch:   trace.EpochOf(now, trace.DefaultReportInterval),
			Seq:     s.seqs[addr],
		}
		s.journal.Record(now.UnixNano(), obs.StageEmit, obs.VerdictEmitted, id)
	}

	s.deliverReport(rep, id)
	p.ResetWindow()
}

// deliverReport ships one report to the sink, through the fault-injected
// datagram path when one is configured. A torn datagram is what the trace
// server would reject, so it is counted and discarded here; duplicated
// and reordered datagrams reach the sink exactly as the server would see
// them, receipt time included.
//
// The flight recorder gives every report exactly one terminal verdict:
// lost when the pipe drops it, and otherwise the fate of the first
// arrival — rejected (torn), sink_error, or delivered. Extra copies of a
// duplicated datagram settle nothing; they are visible as the fault
// plane's duplicate event. Fault-kind events (mangled, duplicate,
// reordered, jittered) are stamped at send time, terminal events at
// arrival time, so a journey sorted by instant reads in causal order.
func (s *Simulation) deliverReport(rep trace.Report, id obs.ReportID) {
	// The owning shard is pure address arithmetic, so a sharded run's
	// report path stays deterministic; 0 (unsharded) keeps journal
	// events unlabeled, exactly as before sharding existed.
	var shard int32
	if s.ingestShards > 1 {
		shard = int32(trace.ShardOf(rep.Addr, s.ingestShards)) + 1
	}
	if s.pipe == nil {
		if err := s.cfg.Sink.Submit(rep); err == nil {
			s.reports++
			s.journal.RecordShard(rep.Time.UnixNano(), obs.StageServer, obs.VerdictDelivered, id, shard)
		} else {
			s.journal.RecordShard(rep.Time.UnixNano(), obs.StageServer, obs.VerdictSinkError, id, shard)
		}
		return
	}
	first := true
	fate := s.pipe.Send(rep.Time, func(at time.Time, torn bool) {
		settles := first
		first = false
		if torn {
			s.torn++
			if settles {
				s.journal.RecordShard(at.UnixNano(), obs.StageServer, obs.VerdictRejected, id, shard)
			}
			return
		}
		r := rep
		r.Time = at
		if err := s.cfg.Sink.Submit(r); err == nil {
			s.reports++
			if settles {
				s.journal.RecordShard(at.UnixNano(), obs.StageServer, obs.VerdictDelivered, id, shard)
			}
		} else if settles {
			s.journal.RecordShard(at.UnixNano(), obs.StageServer, obs.VerdictSinkError, id, shard)
		}
	})
	if s.journal == nil {
		return
	}
	at := rep.Time.UnixNano()
	if fate.Drop {
		s.journal.RecordShard(at, obs.StageFault, obs.VerdictLost, id, shard)
		return
	}
	if fate.Truncated {
		s.journal.RecordShard(at, obs.StageFault, obs.VerdictMangled, id, shard)
	}
	if fate.Copies > 1 {
		s.journal.RecordShard(at, obs.StageFault, obs.VerdictDuplicate, id, shard)
	}
	if fate.HoldSpan > 0 {
		s.journal.RecordShard(at, obs.StageFault, obs.VerdictReordered, id, shard)
	}
	if fate.Jitter > 0 {
		s.journal.RecordShard(at, obs.StageFault, obs.VerdictJittered, id, shard)
	}
}

// synthBufferMap renders playback quality as a sliding-window occupancy
// bitmap: a peer at quality q holds about q of the 64-segment window.
func (s *Simulation) synthBufferMap(quality float64) uint64 {
	k := int(quality*64 + float64(s.rng.Intn(9)) - 4)
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// maintain runs the periodic per-peer protocol upkeep: starvation
// detection with tracker re-contact, neighbour recommendation, and
// availability registration. In tree mode it also refreshes depths.
func (s *Simulation) maintain(now time.Time) {
	if s.cfg.Mode == stream.ModeTreePush {
		stream.ComputeDepths(s.tab, s.peers)
	}
	cfg := s.cfg.Protocol
	// The loop ranges over s.peers itself, not a copy. That is safe only
	// because nothing in it changes membership: connects (bootstrap,
	// recommendation) mutate partner lists, never s.peers, and no
	// departure runs mid-maintenance.
	for _, p := range s.peers {
		if p.IsServer() {
			continue
		}

		// Starvation: low quality for several rounds sends the peer back
		// to the tracker, the protocol's "last resort". A peer on a weak
		// downlink compares against what its own access link can carry,
		// not the full stream rate — no client keeps re-bootstrapping
		// over a structural last-mile limit.
		starveBar := protocol.StarveQuality
		if rate := p.RateKbps(); rate > 0 && p.Host.Cap.DownKbps < rate {
			starveBar *= p.Host.Cap.DownKbps / rate
		}
		if p.QualityEWMA() < starveBar {
			p.StarveCount++
			if p.StarveCount >= protocol.StarveRounds {
				s.bootstrap(p, protocol.TrackerRefill, now)
				p.StarveCount = 0
			}
		} else {
			p.StarveCount = 0
		}

		// Recommendation: a peer short of its target active set asks a
		// random partner for known peers, building the triangles behind
		// the paper's clustering observations.
		if !s.cfg.NoRecommendation && p.PartnerCount() > 0 && p.PartnerCount() < protocol.TargetActive {
			helper := s.tab.Lookup(p.PartnerIDAt(s.rng.Intn(p.PartnerCount())))
			if helper != nil {
				for _, id := range helper.Recommend(s.rng, p.ID(), protocol.RecommendSize) {
					q := s.tab.Lookup(id)
					if q == nil || p.HasPartner(id) {
						continue
					}
					link := s.network.Link(p.Host, q.Host)
					protocol.Connect(p, q, link, cfg)
				}
			}
		}

		// Availability: volunteer at the tracker while upload headroom
		// remains, exactly the protocol's capacity-utilization strategy.
		available := p.SpareUploadKbps() > protocol.AvailabilityHeadroomKbps && p.AcceptsConnection(cfg)
		s.trackerFor(p.ID()).SetAvailable(p.Channel, p.Handle(), available)
	}
}

// insert adds a peer to the live set, registers its runtime under its
// table handle, and updates the incremental aggregates. The peer must
// already be in the table (tab.Add).
func (s *Simulation) insert(p *protocol.Peer) *peerRuntime {
	h := int(p.Handle())
	for len(s.runH) <= h {
		s.runH = append(s.runH, nil)
		s.posH = append(s.posH, 0)
	}
	s.posH[h] = int32(len(s.peers))
	s.peers = append(s.peers, p)
	rt := &peerRuntime{peer: p}
	s.runH[h] = rt
	if !p.IsServer() {
		s.online++
		s.stableQ = append(s.stableQ, rt)
	}
	return rt
}

// remove deletes a peer from the live set by swap-removal, frees its
// table slot, and updates the incremental aggregates. The table slot is
// freed last: the swapped-in peer's handle must still resolve.
func (s *Simulation) remove(p *protocol.Peer) {
	h := p.Handle()
	if h == protocol.NoPeer {
		return
	}
	i := int(s.posH[h])
	rt := s.runH[h]
	if !p.IsServer() {
		s.online--
		if rt.stable {
			s.stable--
		}
	}
	rt.departed = true
	s.runH[h] = nil
	last := len(s.peers) - 1
	q := s.peers[last]
	s.peers[i] = q
	s.posH[q.Handle()] = int32(i)
	s.peers[last] = nil
	s.peers = s.peers[:last]
	s.tab.Remove(p)
}
