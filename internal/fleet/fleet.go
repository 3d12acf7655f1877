// Package fleet turns N cppcd daemons into one logical cell cache. Each
// daemon runs a Node speaking a small HTTP protocol under /fleet/:
//
//	GET  /fleet/cells/{hash}         fetch a computed cell's canonical bytes
//	PUT  /fleet/cells/{hash}         push a computed cell (steal delivery)
//	POST /fleet/claims               claim round: one POST arbitrates a batch of cells
//	GET  /fleet/queue?max=N          cells awaiting a worker, ripe for stealing
//
// The Node plugs into the service as its Coordinator: before a worker
// executes a cell it asks the peers for the result, then claims the cell
// fleet-wide so a cell queued on two daemons runs on exactly one. Idle
// daemons poll peers' queues and steal cells, pushing results back.
//
// Failure rules — a dead peer degrades the fleet, never wedges it:
//   - a peer that cannot be reached is skipped (and backed off); it
//     cannot object to a claim, and it cannot serve a cell;
//   - a daemon that loses a claim waits at most PeerTimeout for the
//     winner's result, then executes the cell locally anyway;
//   - claims expire after ClaimTTL, so a crashed winner's claims decay.
//
// Claim arbitration is decentralized: a claimant records the claim
// locally, asks every reachable peer, and commits only if all grant and
// its own record was not overtaken meanwhile. Ties break toward the
// lexicographically smaller node ID, so two simultaneous claimants
// resolve deterministically to one winner. Duplicated execution is still
// possible under partitions or timeouts — results are content-addressed
// and deterministic, so duplicates cost only time, never correctness.
package fleet

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/service"
)

// Executor is the slice of the service a Node drives: executing stolen
// cells and exposing the local queue. *service.Service implements it.
type Executor interface {
	ExecuteSpec(ctx context.Context, c service.QueuedCell) ([]byte, error)
	StealableCells(max int) []service.QueuedCell
	LoadHint() (queued, busy, workers int)
}

// Config wires a Node.
type Config struct {
	Self  string   // unique node ID, used for claim tie-breaks (typically the advertised address)
	Peers []string // peer base URLs, e.g. "http://host:8322"

	// Local is the node's own store tiers (memory → disk). Peer GETs are
	// served from it, steal results and peer PUTs land in it. It must be
	// the same store the service reads, so delivered cells satisfy
	// waiting workers.
	Local cellstore.Store

	// Exec runs stolen cells. nil disables stealing (the node still
	// serves and claims).
	Exec Executor

	PeerTimeout  time.Duration // result-wait budget before local fallback; also the dead-peer backoff. <= 0 means 5s
	PollInterval time.Duration // steal/wait poll cadence; <= 0 means 250ms
	ClaimTTL     time.Duration // claim expiry; <= 0 means max(30s, 4*PeerTimeout)
	StealBatch   int           // max cells stolen per poll; <= 0 means 2

	// Token is an optional shared secret. When set, every /fleet/*
	// request must carry it in X-Fleet-Token (checked with a
	// constant-time compare) and the node sends it on every peer
	// request, so fleet mode is deployable off-loopback. Every daemon
	// in a fleet must agree on the token.
	Token string

	Logf func(format string, args ...any) // nil means silent
}

// claim is one cell's arbitration record. committed means the owner won
// the full round and may be executing: a committed claim is never
// surrendered to a later claimant, tie-break or not.
type claim struct {
	owner     string
	committed bool
	expires   time.Time
}

// peer is one remote daemon plus its circuit breaker.
type peer struct {
	base string

	mu        sync.Mutex
	downUntil time.Time
}

func (p *peer) alive(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return now.After(p.downUntil)
}

func (p *peer) markDown(until time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.downUntil = until
}

// Node is one daemon's fleet endpoint, coordinator and stealer.
type Node struct {
	cfg    Config
	client *http.Client
	peers  []*peer
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	claims   map[string]*claim
	stats    map[string]int64
	nextPeer int  // round-robin cursor for stealing
	steals   int  // steal goroutines in flight
	started  bool // poller launched
}

// New builds the node. Call Start once the daemon's HTTP server has the
// node's Handler mounted — starting the poller earlier would hit peers
// whose /fleet/ routes are not up yet and trip their circuit breakers.
func New(cfg Config) *Node {
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 5 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.ClaimTTL <= 0 {
		cfg.ClaimTTL = 30 * time.Second
		if ttl := 4 * cfg.PeerTimeout; ttl > cfg.ClaimTTL {
			cfg.ClaimTTL = ttl
		}
	}
	if cfg.StealBatch <= 0 {
		cfg.StealBatch = 2
	}
	n := &Node{
		cfg:    cfg,
		client: &http.Client{},
		claims: make(map[string]*claim),
		stats:  make(map[string]int64),
	}
	for _, base := range cfg.Peers {
		n.peers = append(n.peers, &peer{base: base})
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	return n
}

// Start launches the steal poller. It is a no-op without an Executor or
// peers, and safe to call once only.
func (n *Node) Start() {
	if n.cfg.Exec == nil || len(n.peers) == 0 {
		return
	}
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.pollLoop()
}

// Close stops the poller and any in-flight steals.
func (n *Node) Close() {
	n.cancel()
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) bump(key string) {
	n.mu.Lock()
	n.stats[key]++
	n.mu.Unlock()
}

// Stats snapshots the fleet counters for /metrics.
func (n *Node) Stats() map[string]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int64, len(n.stats)+1)
	for k, v := range n.stats {
		out[k] = v
	}
	out["claims_active"] = int64(len(n.claims))
	return out
}

// --- Coordinator: the service's fleet seam ------------------------------

// RunCell implements service.Coordinator: peers first, then claim; the
// claim loser waits for the winner's result and falls back to local
// execution when the wait budget expires — the fleet can only make a
// cell cheaper, never make it hang.
func (n *Node) RunCell(ctx context.Context, hash string, local func(context.Context) ([]byte, error)) ([]byte, error) {
	if !cellstore.ValidHash(hash) {
		return local(ctx)
	}
	if data, ok := n.fetchPeers(hash); ok {
		n.bump("peer_hits")
		return data, nil
	}
	if n.acquire(hash) {
		n.bump("claims_won")
		data, err := local(ctx)
		if err != nil {
			n.releaseOwn(hash) // let someone else try
		}
		return data, err
	}
	n.bump("claims_lost")

	deadline := time.NewTimer(n.cfg.PeerTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(n.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			n.bump("fallback_local")
			n.logf("fleet: cell %.12s: wait on peer expired, running locally", hash)
			return local(ctx)
		case <-tick.C:
			// A steal delivery lands in the local store; a winner's
			// result is served over its GET endpoint.
			if data, ok := n.cfg.Local.Get(hash); ok {
				n.bump("wait_hits")
				return data, nil
			}
			if data, ok := n.fetchPeers(hash); ok {
				n.bump("wait_hits")
				return data, nil
			}
		}
	}
}

// --- Claim arbitration --------------------------------------------------

// grant applies one claim request against the local table; it is the
// same rule for requests from peers and from this node. Committed claims
// are immovable; otherwise the lexicographically smaller owner wins.
func (n *Node) grant(hash, owner string) (granted bool, current string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	c, ok := n.claims[hash]
	if ok && now.After(c.expires) {
		ok = false
	}
	switch {
	case !ok:
		n.claims[hash] = &claim{owner: owner, expires: now.Add(n.cfg.ClaimTTL)}
		return true, owner
	case c.owner == owner:
		c.expires = now.Add(n.cfg.ClaimTTL)
		return true, owner
	case c.committed:
		return false, c.owner
	case owner < c.owner:
		n.claims[hash] = &claim{owner: owner, expires: now.Add(n.cfg.ClaimTTL)}
		return true, owner
	default:
		return false, c.owner
	}
}

// acquire runs the full claim round for one cell.
func (n *Node) acquire(hash string) bool {
	return n.acquireBatch([]string{hash})[0]
}

// acquireBatch runs one claim round for a set of cells: grant locally,
// then ONE batch POST per live peer for every cell still in contention,
// then commit the survivors. won[i] true means this node — and, in a
// partition-free fleet, only this node — executes hashes[i]. Batching
// changes round-trip count, not arbitration: each (cell, peer) pair is
// granted or rejected exactly as the per-cell round would, and a cell
// rejected by any peer stays in the request set for later peers only to
// learn (and adopt) the stronger owner sooner, never to re-win.
func (n *Node) acquireBatch(hashes []string) (won []bool) {
	won = make([]bool, len(hashes))
	idx := make(map[string]int, len(hashes))
	var live []string // cells still in contention, in submission order
	for i, h := range hashes {
		if _, dup := idx[h]; dup {
			continue // duplicate submissions lose to the first
		}
		if ok, _ := n.grant(h, n.cfg.Self); ok {
			idx[h] = i
			live = append(live, h)
			won[i] = true // tentative until every peer grants
		}
	}
	now := time.Now()
	for _, p := range n.peers {
		if len(live) == 0 {
			break
		}
		if !p.alive(now) {
			continue // a dead peer cannot object
		}
		results, err := n.claimPeerBatch(p, live)
		if err != nil {
			n.peerError(p, err)
			continue
		}
		for _, r := range results {
			i, ok := idx[r.Hash]
			if !ok || r.Granted {
				continue
			}
			won[i] = false
			n.adopt(r.Hash, r.Owner)
		}
		kept := live[:0]
		for _, h := range live {
			if won[idx[h]] {
				kept = append(kept, h)
			}
		}
		live = kept
	}
	// Commit only claims whose own record survived the round: a stronger
	// claimant may have overtaken one while our requests were in flight,
	// in which case exactly that claimant wins.
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, h := range hashes {
		if !won[i] {
			continue
		}
		c, ok := n.claims[h]
		if !ok || c.owner != n.cfg.Self {
			won[i] = false
			continue
		}
		c.committed = true
	}
	return won
}

// adopt records the fleet-wide winner locally so later local claimants
// lose fast, without another network round.
func (n *Node) adopt(hash, owner string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.claims[hash] = &claim{owner: owner, expires: time.Now().Add(n.cfg.ClaimTTL)}
}

// releaseOwn drops this node's claim after a failed execution.
func (n *Node) releaseOwn(hash string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.claims[hash]; ok && c.owner == n.cfg.Self {
		delete(n.claims, hash)
	}
}

// purgeExpired trims decayed claims so the table tracks live work only.
func (n *Node) purgeExpired() {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	for h, c := range n.claims {
		if now.After(c.expires) {
			delete(n.claims, h)
		}
	}
}

// --- Stealing -----------------------------------------------------------

// pollLoop steals queued cells from peers whenever this node has idle
// workers and an empty queue of its own.
func (n *Node) pollLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-tick.C:
		}
		n.purgeExpired()
		queued, busy, workers := n.cfg.Exec.LoadHint()
		n.mu.Lock()
		idle := workers - busy - n.steals
		n.mu.Unlock()
		if queued > 0 || idle <= 0 {
			continue
		}
		p := n.nextLivePeer()
		if p == nil {
			continue
		}
		want := idle
		if want > n.cfg.StealBatch {
			want = n.cfg.StealBatch
		}
		cells, err := n.queuePeer(p, want)
		if err != nil {
			n.peerError(p, err)
			continue
		}
		// Reserve steal slots first, then arbitrate the whole batch in
		// one claim round — one POST per live peer, not one per cell.
		var picked []service.QueuedCell
		for _, c := range cells {
			if !cellstore.ValidHash(c.Hash) {
				continue
			}
			if _, ok := n.cfg.Local.Get(c.Hash); ok {
				continue // already have it; the victim will fetch it
			}
			n.mu.Lock()
			full := n.steals >= want
			if !full {
				n.steals++
			}
			n.mu.Unlock()
			if full {
				break
			}
			picked = append(picked, c)
		}
		if len(picked) == 0 {
			continue
		}
		hashes := make([]string, len(picked))
		for i, c := range picked {
			hashes[i] = c.Hash
		}
		won := n.acquireBatch(hashes)
		for i, c := range picked {
			if !won[i] {
				n.mu.Lock()
				n.steals--
				n.mu.Unlock()
				continue // someone else runs it
			}
			n.wg.Add(1)
			go n.steal(p, c)
		}
	}
}

// nextLivePeer round-robins over peers that are not backed off.
func (n *Node) nextLivePeer() *peer {
	now := time.Now()
	n.mu.Lock()
	start := n.nextPeer
	n.nextPeer = (n.nextPeer + 1) % len(n.peers)
	n.mu.Unlock()
	for i := 0; i < len(n.peers); i++ {
		p := n.peers[(start+i)%len(n.peers)]
		if p.alive(now) {
			return p
		}
	}
	return nil
}

// steal executes one queued cell this node already claimed, then pushes
// the result back so the victim's waiting worker finds it immediately.
// A cell the executor refuses (a sweep spec, or a hash its spec does not
// produce) is a steal error: nothing is stored or pushed and the claim
// is released.
func (n *Node) steal(victim *peer, c service.QueuedCell) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		n.steals--
		n.mu.Unlock()
	}()
	data, err := n.cfg.Exec.ExecuteSpec(n.ctx, c)
	if err != nil {
		n.releaseOwn(c.Hash)
		n.bump("steal_errors")
		return
	}
	n.cfg.Local.Put(c.Hash, data)
	n.bump("cells_stolen")
	if err := n.putPeer(victim, c.Hash, data); err != nil {
		n.peerError(victim, err)
		n.bump("push_errors") // the victim can still fetch it from us
	}
}

// --- Peer HTTP client ---------------------------------------------------

// requestTimeout bounds one HTTP round-trip: short enough that a wedged
// peer cannot eat the whole wait budget in a single call.
func (n *Node) requestTimeout() time.Duration {
	if n.cfg.PeerTimeout < 2*time.Second {
		return n.cfg.PeerTimeout
	}
	return 2 * time.Second
}

func (n *Node) peerError(p *peer, err error) {
	p.markDown(time.Now().Add(n.cfg.PeerTimeout))
	n.bump("peer_errors")
	n.logf("fleet: peer %s down: %v", p.base, err)
}

func (n *Node) do(method, url string, body io.Reader) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(n.ctx, n.requestTimeout())
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		cancel()
		return nil, err
	}
	if n.cfg.Token != "" {
		req.Header.Set(tokenHeader, n.cfg.Token)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel runs when the caller finishes the body.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// fetchPeers asks every live peer for a cell, first hit wins.
func (n *Node) fetchPeers(hash string) ([]byte, bool) {
	now := time.Now()
	for _, p := range n.peers {
		if !p.alive(now) {
			continue
		}
		resp, err := n.do(http.MethodGet, p.base+"/fleet/cells/"+hash, nil)
		if err != nil {
			n.peerError(p, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxCellBytes))
		resp.Body.Close()
		if err != nil {
			n.peerError(p, err)
			continue
		}
		return data, true
	}
	return nil, false
}

// claimPeerBatch asks one peer to arbitrate every hash in one POST. A
// hash missing from the response is treated as granted — the same
// stance taken toward an unreachable peer, which cannot object either.
func (n *Node) claimPeerBatch(p *peer, hashes []string) ([]claimResult, error) {
	payload, err := json.Marshal(claimBatchRequest{Owner: n.cfg.Self, Hashes: hashes})
	if err != nil {
		return nil, err
	}
	resp, err := n.do(http.MethodPost, p.base+"/fleet/claims", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("claim batch: status %d", resp.StatusCode)
	}
	var body claimBatchResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Results, nil
}

func (n *Node) putPeer(p *peer, hash string, data []byte) error {
	resp, err := n.do(http.MethodPut, p.base+"/fleet/cells/"+hash, bytes.NewReader(data))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("put %s: status %d", hash[:12], resp.StatusCode)
	}
	return nil
}

func (n *Node) queuePeer(p *peer, max int) ([]service.QueuedCell, error) {
	resp, err := n.do(http.MethodGet, fmt.Sprintf("%s/fleet/queue?max=%d", p.base, max), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("queue: status %d", resp.StatusCode)
	}
	var body queueResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<22)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Cells, nil
}

// --- HTTP server side ---------------------------------------------------

// maxCellBytes bounds one cell's encoded size on the wire; real cells
// are a few KB.
const maxCellBytes = 64 << 20

// claimBatchMax bounds one batch claim request; steal batches are far
// smaller (the queue handler itself serves at most 64 cells).
const claimBatchMax = 256

type claimBatchRequest struct {
	Owner  string   `json:"owner"`
	Hashes []string `json:"hashes"`
}

type claimResult struct {
	Hash    string `json:"hash"`
	Granted bool   `json:"granted"`
	Owner   string `json:"owner"`
}

type claimBatchResponse struct {
	Results []claimResult `json:"results"`
}

type queueResponse struct {
	Cells []service.QueuedCell `json:"cells"`
}

// tokenHeader carries the fleet shared secret on every peer request.
const tokenHeader = "X-Fleet-Token"

// Handler serves the /fleet/ protocol; mount it on the daemon's mux
// next to the job API. With Config.Token set, every route requires the
// matching X-Fleet-Token header.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/cells/{hash}", n.handleGetCell)
	mux.HandleFunc("PUT /fleet/cells/{hash}", n.handlePutCell)
	mux.HandleFunc("POST /fleet/claims", n.handleClaimBatch)
	mux.HandleFunc("GET /fleet/queue", n.handleQueue)
	if n.cfg.Token == "" {
		return mux
	}
	want := []byte(n.cfg.Token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get(tokenHeader))
		// subtle.ConstantTimeCompare is length-leaking by contract (it
		// returns 0 immediately on mismatched lengths), which is fine:
		// the length of the secret is not the secret.
		if subtle.ConstantTimeCompare(got, want) != 1 {
			n.bump("auth_rejected")
			http.Error(w, "bad fleet token", http.StatusUnauthorized)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func (n *Node) handleGetCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !cellstore.ValidHash(hash) {
		http.Error(w, "bad cell hash", http.StatusBadRequest)
		return
	}
	data, ok := n.cfg.Local.Get(hash)
	if !ok {
		http.Error(w, "cell not here", http.StatusNotFound)
		return
	}
	n.bump("cells_served")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (n *Node) handlePutCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !cellstore.ValidHash(hash) {
		http.Error(w, "bad cell hash", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCellBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, "cell too large", http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, "short read", http.StatusBadRequest)
		return
	}
	n.cfg.Local.Put(hash, data)
	n.bump("puts_received")
	w.WriteHeader(http.StatusNoContent)
}

// handleClaimBatch arbitrates a whole batch of cells in one request.
// Each hash is granted or rejected independently, by the same grant rule
// this node applies to its own claims.
func (n *Node) handleClaimBatch(w http.ResponseWriter, r *http.Request) {
	var req claimBatchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad claim batch", http.StatusBadRequest)
		return
	}
	if req.Owner == "" || req.Owner == n.cfg.Self || len(req.Hashes) == 0 || len(req.Hashes) > claimBatchMax {
		http.Error(w, "bad claim batch", http.StatusBadRequest)
		return
	}
	results := make([]claimResult, 0, len(req.Hashes))
	for _, h := range req.Hashes {
		if !cellstore.ValidHash(h) {
			http.Error(w, "bad cell hash", http.StatusBadRequest)
			return
		}
		granted, current := n.grant(h, req.Owner)
		if granted {
			n.bump("claims_granted")
		} else {
			n.bump("claims_rejected")
		}
		results = append(results, claimResult{Hash: h, Granted: granted, Owner: current})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(claimBatchResponse{Results: results})
}

func (n *Node) handleQueue(w http.ResponseWriter, r *http.Request) {
	max := 4
	if s := r.URL.Query().Get("max"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			max = v
		}
	}
	if max > 64 {
		max = 64
	}
	var cells []service.QueuedCell
	if n.cfg.Exec != nil {
		cells = n.cfg.Exec.StealableCells(max)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(queueResponse{Cells: cells})
}
