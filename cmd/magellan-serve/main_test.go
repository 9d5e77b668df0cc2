package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/opsurface"
	"github.com/magellan-p2p/magellan/internal/opsurface/opsurfacetest"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/tsdb"
)

// sendRaw ships an arbitrary datagram to addr, bypassing the trace
// client's encoding — the test's stand-in for a faulty network.
func sendRaw(t *testing.T, addr string, data []byte) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
}

func sampleReport(addr uint32) trace.Report {
	return trace.Report{
		Time:    time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC),
		Addr:    isp.Addr(addr),
		Port:    1234,
		Channel: "CCTV1",
		UpKbps:  448,
		Partners: []trace.PartnerRecord{
			{Addr: 99, Port: 1, SentSeg: 10, RecvSeg: 20},
		},
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	d, err := newDaemon(daemonConfig{listen: "127.0.0.1:0", outDir: dir, surface: opsurface.Flags{HTTP: "127.0.0.1:0"}, rotate: time.Hour})
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}

	client, err := trace.Dial(d.udp.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	const n = 25
	for i := 0; i < n; i++ {
		if err := client.Submit(sampleReport(uint32(100 + i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.udp.Received() < n {
		time.Sleep(5 * time.Millisecond)
	}
	if d.udp.Received() != n {
		t.Fatalf("received %d, want %d", d.udp.Received(), n)
	}

	// Status endpoint.
	resp, err := http.Get("http://" + d.surf.Addr() + "/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if got, _ := status["received"].(float64); int(got) != n {
		t.Errorf("status received = %v, want %d", status["received"], n)
	}
	if status["currentFile"] == "" {
		t.Error("status missing current file")
	}

	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The persisted trace file must be loadable and hold every report.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("trace files = %d, want 1", len(entries))
	}
	f, err := os.Open(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, err := trace.LoadStore(f, 10*time.Minute)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	if store.Len() != n {
		t.Errorf("persisted %d reports, want %d", store.Len(), n)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	sink, err := newRotatingSink(dir, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Submit(sampleReport(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := sink.Submit(sampleReport(2)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Errorf("rotation produced %d files, want ≥ 2", len(entries))
	}
	// Every rotated file is a complete stream on its own: rotation at the
	// period boundary must re-emit the header, not split records.
	total := 0
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		store, err := trace.LoadStore(f, 10*time.Minute)
		f.Close()
		if err != nil {
			t.Fatalf("rotated file %s does not load: %v", e.Name(), err)
		}
		total += store.Len()
	}
	if total != 2 {
		t.Errorf("rotated files hold %d reports in total, want 2", total)
	}
	if err := sink.Submit(sampleReport(3)); err == nil {
		t.Error("closed sink accepted a report")
	}
}

// TestDaemonStatusShape pins the /status contract: monitoring dashboards
// key on these field names, so a rename is a breaking change.
func TestDaemonStatusShape(t *testing.T) {
	dir := t.TempDir()
	d, err := newDaemon(daemonConfig{listen: "127.0.0.1:0", outDir: dir, surface: opsurface.Flags{HTTP: "127.0.0.1:0"}, rotate: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get("http://" + d.surf.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		key     string
		numeric bool
	}{
		{"received", true},
		{"dropped", true},
		{"rejected", true},
		{"queueDrops", true},
		{"sinkErrors", true},
		{"recoveredFiles", true},
		{"truncatedBytes", true},
		{"uptimeSeconds", true},
		{"currentFile", false},
	} {
		v, ok := status[tc.key]
		if !ok {
			t.Errorf("status missing %q", tc.key)
			continue
		}
		if _, isNum := v.(float64); isNum != tc.numeric {
			t.Errorf("status[%q] = %T (%v), numeric=%v expected", tc.key, v, v, tc.numeric)
		}
	}
	if f, _ := status["currentFile"].(string); f == "" {
		t.Error("currentFile empty")
	}
}

// TestDaemonRejectedCounter feeds the daemon fault-shaped datagrams and
// checks they surface as rejections on /status, not as received reports.
func TestDaemonRejectedCounter(t *testing.T) {
	dir := t.TempDir()
	d, err := newDaemon(daemonConfig{listen: "127.0.0.1:0", outDir: dir, surface: opsurface.Flags{HTTP: "127.0.0.1:0"}, rotate: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	client, err := trace.Dial(d.udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// A valid report, then a torn copy of it (strict prefix), then raw
	// noise: the mix a lossy measurement network actually delivers.
	good := sampleReport(7)
	if err := client.Submit(good); err != nil {
		t.Fatal(err)
	}
	payload := trace.AppendReport(nil, &good)
	sendRaw(t, d.udp.Addr().String(), payload[:len(payload)/2])
	sendRaw(t, d.udp.Addr().String(), []byte{0xde, 0xad})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := d.udp.Stats()
		if st.Received == 1 && st.Rejected == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := d.udp.Stats()
	if st.Received != 1 || st.Rejected != 2 || st.SinkErrors != 0 {
		t.Errorf("stats = %+v, want 1 received / 2 rejected", st)
	}

	resp, err := http.Get("http://" + d.surf.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if got, _ := status["rejected"].(float64); int(got) != 2 {
		t.Errorf("status rejected = %v, want 2", status["rejected"])
	}
}

// TestRecoveryDaemonRestart simulates the crash-restart cycle: a
// predecessor dies mid-record, the next daemon start repairs the torn
// file and reports the repair on /status.
func TestRecoveryDaemonRestart(t *testing.T) {
	dir := t.TempDir()

	// First life: a sink writes reports, then the "crash" leaves a torn
	// tail by appending half a record to the closed file.
	sink, err := newRotatingSink(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sink.Submit(sampleReport(uint32(10 + i))); err != nil {
			t.Fatal(err)
		}
	}
	torn := sink.CurrentFile()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rep := sampleReport(99)
	payload := trace.AppendReport(nil, &rep)
	f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload[:len(payload)/2]...)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: startup recovery truncates the tail.
	d, err := newDaemon(daemonConfig{listen: "127.0.0.1:0", outDir: dir, surface: opsurface.Flags{HTTP: "127.0.0.1:0"}, rotate: time.Hour})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer d.Close()
	if d.recoveredFiles != 1 || d.truncatedBytes == 0 {
		t.Errorf("recovery: files=%d bytes=%d, want 1 file and nonzero bytes", d.recoveredFiles, d.truncatedBytes)
	}

	resp, err := http.Get("http://" + d.surf.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if got, _ := status["recoveredFiles"].(float64); int(got) != 1 {
		t.Errorf("status recoveredFiles = %v, want 1", status["recoveredFiles"])
	}

	// The repaired file loads and holds exactly the intact records.
	tf, err := os.Open(torn)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	store, err := trace.LoadStore(tf, 10*time.Minute)
	if err != nil {
		t.Fatalf("LoadStore after recovery: %v", err)
	}
	if store.Len() != 3 {
		t.Errorf("recovered file holds %d reports, want 3", store.Len())
	}
}

// TestDaemonSIGTERM exercises the real shutdown path: the signal handler
// flushes and closes the current trace file before run returns.
func TestDaemonSIGTERM(t *testing.T) {
	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-out", dir}, nil)
	}()
	// Give run time to install its signal handler and open the sink.
	time.Sleep(100 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon ignored SIGTERM")
	}
	// The flushed file is complete: it scans clean.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("trace files = %d, want 1", len(entries))
	}
	f, err := os.Open(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := trace.ScanStream(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Errorf("SIGTERM left a torn trace file: %v", res.TailErr)
	}
}

func TestRunStopChannel(t *testing.T) {
	dir := t.TempDir()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-out", dir}, stop)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not stop")
	}
}

// TestDaemonEndpointSweep runs the shared endpoint table, plus /status,
// against a daemon with every plane on, checks -pprof mounts
// /debug/pprof/, and storms every endpoint with scrapes during
// shutdown, which must neither panic nor deadlock.
func TestDaemonEndpointSweep(t *testing.T) {
	dir := t.TempDir()
	d, err := newDaemon(daemonConfig{
		listen: "127.0.0.1:0", outDir: dir, rotate: time.Hour,
		journal: 64, live: true, pprof: true,
		surface: opsurface.Flags{HTTP: "127.0.0.1:0", History: 10 * time.Millisecond, Alerts: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.surf.Addr()
	status := opsurfacetest.Endpoint{Path: "/status", ContentType: "application/json"}
	opsurfacetest.Sweep(t, base, false, status)
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d with -pprof, want 200", resp.StatusCode)
	}

	// Scrape storm across shutdown: every endpoint hammered while Close
	// tears the daemon down. Errors are expected once the listener dies;
	// panics or hangs are the failure mode under test.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, ep := range append(slices.Clone(opsurfacetest.Endpoints), status) {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + path)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body) //magellan:allow erridle — shutdown race; body content is irrelevant
				resp.Body.Close()
			}
		}(ep.Path)
	}
	time.Sleep(20 * time.Millisecond)
	if err := d.Close(); err != nil {
		t.Errorf("Close under scrape load: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestDaemonSurfaceDataPlane checks that the ingest plane reports
// through the shared surface: its families reach /metrics, the self-log
// record and the persisted history.
func TestDaemonSurfaceDataPlane(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "history.jsonl")
	var mu sync.Mutex
	var buf bytes.Buffer
	sink := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	d, err := newDaemon(daemonConfig{
		listen: "127.0.0.1:0", outDir: filepath.Join(dir, "traces"), rotate: time.Hour,
		selfLog: 10 * time.Millisecond, logSink: sink,
		surface: opsurface.Flags{HTTP: "127.0.0.1:0", History: 5 * time.Millisecond, HistoryOut: out, Alerts: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := trace.Dial(d.udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Submit(sampleReport(5)); err != nil {
		t.Fatal(err)
	}
	// Wait for the sink to persist the report, and for one self-log record.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 && d.sink.Written() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get("http://" + d.surf.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"magellan_ingest_received_total 1",
		"magellan_ingest_queue_capacity",
		"magellan_sink_submit_duration_seconds_count 1",
		"magellan_sink_reports_written_total 1",
		`magellan_build_info{binary="magellan-serve"`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	first, _, _ := strings.Cut(buf.String(), "\n")
	mu.Unlock()
	var rec map[string]any
	if err := json.Unmarshal([]byte(first), &rec); err != nil {
		t.Fatalf("self-log record is not JSON: %v\n%s", err, first)
	}
	for _, key := range []string{"msg", "received", "queueDrops", "currentFile", "alertsFiring"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("self-log record missing %q: %s", key, first)
		}
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("history snapshot missing: %v", err)
	}
	defer f.Close()
	db, err := tsdb.ReadJSONL(f, 0)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if got := db.Match("magellan_ingest_received_total"); len(got) == 0 {
		t.Error("persisted history lost the received-report series")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// traceFiles lists every *.trace file under dir, which need not exist.
func traceFiles(t *testing.T, dir string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err == nil && strings.HasSuffix(path, ".trace") {
			found = append(found, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// stopped is a stop channel that is already closed: a run that wrongly
// starts returns at once instead of blocking the test.
func stopped() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}

// TestRunBusyHTTPCreatesNothing: the surface binds -http before recovery
// or a sink touches -out, so a busy port fails the run with no trace file
// created.
func TestRunBusyHTTPCreatesNothing(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := t.TempDir()
	err = run([]string{"-listen", "127.0.0.1:0", "-out", dir, "-http", busy.Addr().String()}, stopped())
	if err == nil || !strings.Contains(err.Error(), "-http") {
		t.Fatalf("busy -http: err = %v, want an -http error", err)
	}
	if got := traceFiles(t, dir); len(got) != 0 {
		t.Errorf("busy -http left trace files behind: %v", got)
	}
}

// TestRunBusyUDPCreatesNothing: the fleet binds every -listen socket
// before any sink opens a file, so a busy UDP port — the standalone
// server's, or the second shard's — fails the run with no trace file
// created.
func TestRunBusyUDPCreatesNothing(t *testing.T) {
	busy, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	port := busy.LocalAddr().(*net.UDPAddr).Port
	for _, args := range [][]string{
		{"-listen", busy.LocalAddr().String()},
		{"-listen", net.JoinHostPort("127.0.0.1", strconv.Itoa(port-1)), "-shards", "2"},
	} {
		dir := t.TempDir()
		err := run(append(args, "-out", dir), stopped())
		if err == nil || !strings.Contains(err.Error(), "listen") {
			t.Errorf("%v on a busy port: err = %v, want a listen error", args, err)
		}
		if got := traceFiles(t, dir); len(got) != 0 {
			t.Errorf("%v on a busy port left trace files behind: %v", args, got)
		}
	}
}

// TestRunRejectsBadRotate: a rotation period ≤ 0 would open a new trace
// file for every report.
func TestRunRejectsBadRotate(t *testing.T) {
	for _, rotate := range []string{"0", "-1s"} {
		dir := t.TempDir()
		err := run([]string{"-listen", "127.0.0.1:0", "-out", dir, "-rotate", rotate}, stopped())
		if err == nil || !strings.Contains(err.Error(), "-rotate") {
			t.Errorf("-rotate %s: err = %v, want a -rotate error", rotate, err)
		}
		if got := traceFiles(t, dir); len(got) != 0 {
			t.Errorf("-rotate %s left trace files behind: %v", rotate, got)
		}
	}
}

// TestFlagPin pins every flag's name and default, so a new or changed
// flag shows up here as a deliberate diff.
func TestFlagPin(t *testing.T) {
	var got []string
	new(daemonConfig).flagSet().VisitAll(func(f *flag.Flag) {
		got = append(got, "-"+f.Name+"="+f.DefValue)
	})
	want := []string{
		"-alerts=false",
		"-history=0s",
		"-history-cap=1024",
		"-history-out=",
		"-http=",
		"-journal=4096",
		"-listen=127.0.0.1:9600",
		"-live=false",
		"-live-ispdb=",
		"-out=traces",
		"-pprof=false",
		"-queue=0",
		"-rotate=1h0m0s",
		"-selflog=1m0s",
		"-shards=1",
		"-version=false",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDaemonLiveEndToEnd drives reports through the UDP fleet with the
// live plane on and checks closed epochs surface on /live/epochs and
// the magellan_live_* metrics family on /metrics.
func TestDaemonLiveEndToEnd(t *testing.T) {
	dir := t.TempDir()
	d, err := newDaemon(daemonConfig{
		listen: "127.0.0.1:0", outDir: dir, surface: opsurface.Flags{HTTP: "127.0.0.1:0"},
		rotate: time.Hour, shards: 2, live: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.surf.Addr()

	client, err := trace.DialSharded(d.fleet.Addrs()...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Two epochs of reports, then one report per shard in a third epoch
	// to push every shard's watermark past the first two boundaries.
	epoch0 := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	const perEpoch = 16
	total := 0
	for e := 0; e < 2; e++ {
		for i := 0; i < perEpoch; i++ {
			r := sampleReport(uint32(100 + i))
			r.Time = epoch0.Add(time.Duration(e)*10*time.Minute + time.Minute)
			if err := client.Submit(r); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	for i := 0; i < perEpoch; i++ {
		r := sampleReport(uint32(100 + i))
		r.Time = epoch0.Add(25 * time.Minute)
		if err := client.Submit(r); err != nil {
			t.Fatal(err)
		}
		total++
	}

	// Wait for ingest, then for the watermark to close both epochs.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && int(d.fleet.TotalStats().Received) < total {
		time.Sleep(5 * time.Millisecond)
	}
	var closedCount int
	for time.Now().Before(deadline) {
		if closedCount = len(d.live.Closed()); closedCount >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if closedCount < 2 {
		t.Fatalf("live closed %d epochs, want ≥ 2 (in flight: %v)", closedCount, d.live.InFlight())
	}

	resp, err := http.Get(base + "/live/epochs")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		EpochsClosed int `json:"epochsClosed"`
		Closed       []struct {
			Stable int    `json:"stable"`
			Digest string `json:"digest"`
		} `json:"closed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&payload)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /live/epochs: %v", err)
	}
	if payload.EpochsClosed < 2 || len(payload.Closed) < 2 {
		t.Fatalf("/live/epochs shows %d closed, want ≥ 2", payload.EpochsClosed)
	}
	if payload.Closed[0].Stable != perEpoch || len(payload.Closed[0].Digest) != 64 {
		t.Errorf("closed[0] = %+v, want %d stable peers and a digest", payload.Closed[0], perEpoch)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"magellan_live_epochs_closed_total 2",
		"magellan_live_stragglers_dropped_total 0",
		"magellan_live_peers_in_flight",
		"magellan_live_finalize_duration_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
