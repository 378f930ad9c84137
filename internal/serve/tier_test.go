package serve

// Integration tests for the serving tier: persistent warm start across a
// daemon restart, and a real 3-node in-process tier with consistent-hash
// forwarding.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWarmStartServesWithoutResimulating generates a report, "restarts the
// daemon" (a fresh Server over the same store directory), and proves the
// restarted instance serves byte-identical bodies with its generation
// counter untouched.
func TestWarmStartServesWithoutResimulating(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f1 := &fakeRun{}
	_, h1 := newTestServer(t, Config{Run: f1.run, Store: st})
	first := get(t, h1, "/v1/report/t6?seed=4")
	if first.Code != http.StatusOK {
		t.Fatalf("first = %d", first.Code)
	}
	firstJSON := get(t, h1, "/v1/report/t6?seed=4&format=json")

	// Restart: a brand-new server (fresh cache, fresh RunFunc) over a
	// reopened store.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f2 := &fakeRun{}
	s2, h2 := newTestServer(t, Config{Run: f2.run, Store: st2})
	if got := s2.Metrics().StoreLoads.Load(); got != 1 {
		t.Errorf("warm-start loads = %d, want 1", got)
	}
	second := get(t, h2, "/v1/report/t6?seed=4")
	if second.Code != http.StatusOK {
		t.Fatalf("post-restart = %d", second.Code)
	}
	if src := second.Header().Get("X-Memoird-Cache"); src != "hit" {
		t.Errorf("post-restart source = %q, want hit (warm-started cache)", src)
	}
	if second.Body.String() != first.Body.String() {
		t.Error("post-restart body differs from pre-restart body")
	}
	secondJSON := get(t, h2, "/v1/report/t6?seed=4&format=json")
	if secondJSON.Body.String() != firstJSON.Body.String() {
		t.Error("post-restart JSON body differs from pre-restart JSON body")
	}
	if n := f2.invocations.Load(); n != 0 {
		t.Errorf("restarted daemon re-simulated %d times, want 0", n)
	}
	if n := s2.Metrics().Generations.Load(); n != 0 {
		t.Errorf("restarted daemon generation counter = %d, want 0", n)
	}
}

// TestStoreHitWithoutWarmCache covers the L2 path directly: an entry
// present on disk but evicted from (or never in) the in-memory cache is
// served from the store, not regenerated.
func TestStoreHitWithoutWarmCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeRun{}
	s, h := newTestServer(t, Config{Run: f.run, Store: st, CacheEntries: numShards})
	if rec := get(t, h, "/v1/report/f2?seed=6"); rec.Code != http.StatusOK {
		t.Fatalf("prime = %d", rec.Code)
	}
	// Evict from memory by LRU pressure: with one entry per shard, a report
	// whose key shares the shard takes the slot. Disk still has both.
	other := fmt.Sprintf("/v1/report/f2?seed=%d", sameShardSeed(s.cache, "f2", 6))
	if rec := get(t, h, other); rec.Code != http.StatusOK {
		t.Fatalf("evicting request = %d", rec.Code)
	}
	rec := get(t, h, "/v1/report/f2?seed=6")
	if src := rec.Header().Get("X-Memoird-Cache"); src != "store" {
		t.Errorf("evicted-entry source = %q, want store", src)
	}
	if n := f.invocations.Load(); n != 2 {
		t.Errorf("store hit re-simulated: %d runs, want 2 (prime and evicting request)", n)
	}
	if s.Metrics().StoreHits.Load() != 1 {
		t.Errorf("store hits = %d, want 1", s.Metrics().StoreHits.Load())
	}
}

// tierNode is one in-process member of a test tier.
type tierNode struct {
	addr string
	run  *fakeRun
	srv  *Server
}

// startTier brings up n memoird instances on loopback listeners, each with
// its own fakeRun counter and a ring over the full member set.
func startTier(t *testing.T, n int) []*tierNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*tierNode, n)
	for i := range nodes {
		f := &fakeRun{}
		srv := New(Config{Run: f.run, Ring: NewRing(addrs[i], addrs)})
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(listeners[i])
		t.Cleanup(func() { httpSrv.Close() })
		nodes[i] = &tierNode{addr: addrs[i], run: f, srv: srv}
	}
	return nodes
}

func httpGet(t *testing.T, url string, header http.Header) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestThreeNodeTierForwardsByteIdentical proves the acceptance criterion:
// on a 3-node tier, a request landing on a non-owner is forwarded to the
// owner, generated exactly once tier-wide, and the forwarded body is
// byte-identical to asking the owner directly — in both formats.
func TestThreeNodeTierForwardsByteIdentical(t *testing.T) {
	nodes := startTier(t, 3)
	ring := nodes[0].srv.ring

	// Find a request owned by a node other than nodes[0], so the entry
	// request below must cross the wire.
	var id string
	var seed int
	var owner *tierNode
search:
	for s := 1; s < 200; s++ {
		for _, cand := range []string{"f1", "t1", "t6"} {
			o := ring.Owner(fmt.Sprintf("%s|seed=%d|quick=false", cand, s))
			for _, n := range nodes[1:] {
				if n.addr == o {
					id, seed, owner = cand, s, n
					break search
				}
			}
		}
	}
	if owner == nil {
		t.Fatal("could not find a key owned by a remote node")
	}
	path := fmt.Sprintf("/v1/report/%s?seed=%d", id, seed)

	status, hdr, forwarded := httpGet(t, nodes[0].addr+path, nil)
	if status != http.StatusOK {
		t.Fatalf("forwarded request = %d %s", status, forwarded)
	}
	if src := hdr.Get("X-Memoird-Cache"); src != "forwarded" {
		t.Errorf("source = %q, want forwarded", src)
	}
	if got := owner.run.invocations.Load(); got != 1 {
		t.Errorf("owner generations = %d, want 1", got)
	}
	if got := nodes[0].run.invocations.Load(); got != 0 {
		t.Errorf("non-owner generated %d times, want 0 (should forward)", got)
	}

	// Byte identity against the owner's direct answer, text and JSON.
	status, _, direct := httpGet(t, owner.addr+path, nil)
	if status != http.StatusOK {
		t.Fatalf("direct request = %d", status)
	}
	if forwarded != direct {
		t.Errorf("forwarded body differs from owner-local body:\n--- forwarded ---\n%s\n--- direct ---\n%s", forwarded, direct)
	}
	_, _, fwdJSON := httpGet(t, nodes[0].addr+path+"&format=json", nil)
	_, _, directJSON := httpGet(t, owner.addr+path+"&format=json", nil)
	if fwdJSON != directJSON {
		t.Error("forwarded JSON body differs from owner-local JSON body")
	}

	// The forwarding node cached the entry: a repeat is a local hit, and
	// tier-wide generation count stays 1.
	_, hdr, _ = httpGet(t, nodes[0].addr+path, nil)
	if src := hdr.Get("X-Memoird-Cache"); src != "hit" {
		t.Errorf("repeat source = %q, want hit", src)
	}
	var total int64
	for _, n := range nodes {
		total += n.run.invocations.Load()
	}
	if total != 1 {
		t.Errorf("tier-wide generations = %d, want 1", total)
	}

	// Peer health surfaces at /metrics on the forwarding node.
	_, _, metrics := httpGet(t, nodes[0].addr+"/metrics", nil)
	for _, want := range []string{"memoird_forwards_total 1", "memoird_peer_up{peer="} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestTierSingleHopGuard sends a request already marked as forwarded to a
// non-owner: it must be served locally (one hop max), never bounced on.
func TestTierSingleHopGuard(t *testing.T) {
	nodes := startTier(t, 3)
	ring := nodes[0].srv.ring
	var path string
	for seed := 1; seed < 200; seed++ {
		key := fmt.Sprintf("f1|seed=%d|quick=false", seed)
		if ring.Owner(key) != nodes[0].addr {
			path = fmt.Sprintf("/v1/report/f1?seed=%d", seed)
			break
		}
	}
	if path == "" {
		t.Fatal("no remote-owned key found")
	}
	hdr := http.Header{forwardHeader: []string{"test"}}
	status, respHdr, _ := httpGet(t, nodes[0].addr+path, hdr)
	if status != http.StatusOK {
		t.Fatalf("guarded request = %d", status)
	}
	if src := respHdr.Get("X-Memoird-Cache"); src != "miss" {
		t.Errorf("guarded request source = %q, want miss (local generation)", src)
	}
	if nodes[0].run.invocations.Load() != 1 {
		t.Errorf("guarded request did not generate locally")
	}
	var remote int64
	for _, n := range nodes[1:] {
		remote += n.run.invocations.Load()
	}
	if remote != 0 {
		t.Errorf("guarded request reached a peer: %d remote generations", remote)
	}
}

// TestTierDeadPeerFallsBackLocally rings this node with a peer that is not
// listening: forwards fail, the request is served locally, and the peer is
// eventually marked down in /metrics.
func TestTierDeadPeerFallsBackLocally(t *testing.T) {
	// Reserve-and-release a port so the peer address refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := "http://" + ln.Addr().String()
	ln.Close()

	self := "http://127.0.0.1:1" // never dialed: requests come in via the test handler
	f := &fakeRun{}
	s := New(Config{Run: f.run, Ring: NewRing(self, []string{deadAddr})})
	h := s.Handler()

	// Find a key the dead peer owns.
	var path string
	for seed := 1; seed < 200; seed++ {
		if s.ring.Owner(fmt.Sprintf("f1|seed=%d|quick=false", seed)) == deadAddr {
			path = fmt.Sprintf("/v1/report/f1?seed=%d", seed)
			break
		}
	}
	if path == "" {
		t.Fatal("no dead-peer-owned key found")
	}
	rec := get(t, h, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("request with dead owner = %d, want 200 (local fallback)", rec.Code)
	}
	if src := rec.Header().Get("X-Memoird-Cache"); src != "miss" {
		t.Errorf("fallback source = %q, want miss", src)
	}
	if f.invocations.Load() != 1 {
		t.Errorf("fallback generations = %d, want 1", f.invocations.Load())
	}
	if s.Metrics().ForwardErrors.Load() != 1 {
		t.Errorf("forward errors = %d, want 1", s.Metrics().ForwardErrors.Load())
	}

	// Two more failures cross downThreshold; after that the metrics page
	// must report the peer down.
	for seed := 1000; s.Metrics().ForwardErrors.Load() < downThreshold && seed < 1400; seed++ {
		key := fmt.Sprintf("f1|seed=%d|quick=false", seed)
		if s.ring.Owner(key) == deadAddr {
			get(t, h, fmt.Sprintf("/v1/report/f1?seed=%d", seed))
		}
	}
	rec = get(t, h, "/metrics")
	if want := fmt.Sprintf("memoird_peer_up{peer=%q} 0", deadAddr); !strings.Contains(rec.Body.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, rec.Body.String())
	}
}
