package lifetime

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/objectstore"
	"repro/internal/transport"
	"repro/internal/types"
)

// PullConfig tunes the chunked pull protocol. The zero value selects
// defaults.
type PullConfig struct {
	// ChunkSize is the transfer granularity; objects at or below it move in
	// one round trip. Default 256 KiB.
	ChunkSize int64
}

func (c PullConfig) withDefaults() PullConfig {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256 << 10
	}
	return c
}

const (
	// perPeerWindow bounds concurrent chunk requests to one peer — the
	// backpressure that keeps a puller from flooding a single source node.
	perPeerWindow = 4
	// maxConcurrent bounds concurrent chunk requests across all peers of
	// one pull.
	maxConcurrent = 16
)

// PullManager moves objects between this node's store and its peers'. It
// replaces the original single-shot fetcher: large objects transfer as
// parallel chunk streams spread over every peer holding a copy (memory
// copies preferred over spilled ones), small objects still take one round
// trip. Concurrent fetches of the same object collapse into a single pull.
// Peer connections and addresses are cached, and shared by pulls, drain
// migration and result delivery (Deliver).
type PullManager struct {
	store *objectstore.Store
	ctrl  gcs.API
	net   transport.Network
	// resolveAddr maps a live node to its transport address (node-table
	// lookup); peerAddr caches its answers.
	resolveAddr func(types.NodeID) (string, bool)
	cfg         PullConfig

	mu       sync.Mutex
	inflight map[types.ObjectID]chan error
	conns    map[string]transport.Client
	addrs    map[types.NodeID]string
	windows  map[string]chan struct{}
	// stop gates new connections after Close; baseCtx cancels the
	// migration pulls a peer's drain asks for: they must not outlive the
	// node, re-dial peers, and register locations for a store that is
	// shutting down.
	stop       chan struct{}
	stopOnce   sync.Once
	baseCtx    context.Context
	baseCancel context.CancelFunc

	objects atomic.Int64
	chunks  atomic.Int64
	bytes   atomic.Int64

	// obs holds pre-resolved instruments (SetObservability); all nil-safe.
	obs pullObs
}

// pullObs bundles the pull manager's instruments and tracer. The migrator
// shares the tracer for its drain-migration spans.
type pullObs struct {
	objects    *metrics.Counter
	chunks     *metrics.Counter
	bytes      *metrics.Counter
	migrated   *metrics.Counter
	pullNs     *metrics.Histogram
	chunkNs    *metrics.Histogram
	pushSent   *metrics.Counter
	pushBytes  *metrics.Counter
	pushFailed *metrics.Counter
	tracer     *metrics.Tracer
}

// NewPullManager wires a pull manager to the local store and cluster
// network.
func NewPullManager(store *objectstore.Store, ctrl gcs.API, net transport.Network, resolveAddr func(types.NodeID) (string, bool), cfg PullConfig) *PullManager {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	return &PullManager{
		baseCtx:     baseCtx,
		baseCancel:  baseCancel,
		store:       store,
		ctrl:        ctrl,
		net:         net,
		resolveAddr: resolveAddr,
		cfg:         cfg.withDefaults(),
		inflight:    make(map[types.ObjectID]chan error),
		conns:       make(map[string]transport.Client),
		addrs:       make(map[types.NodeID]string),
		windows:     make(map[string]chan struct{}),
		stop:        make(chan struct{}),
	}
}

// SetObservability attaches a metrics registry and span tracer (either
// may be nil). Call before the manager serves traffic. The node's
// Migrator records its drain-migration spans through the same tracer.
func (p *PullManager) SetObservability(reg *metrics.Registry, tracer *metrics.Tracer) {
	p.obs = pullObs{
		objects:    reg.Counter("lifetime.pull.objects"),
		chunks:     reg.Counter("lifetime.pull.chunks"),
		bytes:      reg.Counter("lifetime.pull.bytes"),
		migrated:   reg.Counter("lifetime.migrated.objects"),
		pullNs:     reg.Histogram("lifetime.pull.ns"),
		chunkNs:    reg.Histogram("lifetime.pull.chunk.ns"),
		pushSent:   reg.Counter("objectstore.push.sent"),
		pushBytes:  reg.Counter("objectstore.push.bytes"),
		pushFailed: reg.Counter("objectstore.push.failed"),
		tracer:     tracer,
	}
}

// Stats returns cumulative (objects, chunks, bytes) pulled.
func (p *PullManager) Stats() (objects, chunks, bytes int64) {
	return p.objects.Load(), p.chunks.Load(), p.bytes.Load()
}

// Fetch ensures id is locally resident, pulling from the given candidate
// locations. Concurrent fetches of one object collapse into a single pull.
// The pull reads the object's record for its size and spill state; a caller
// that already holds the record uses FetchObject and saves that read.
func (p *PullManager) Fetch(ctx context.Context, id types.ObjectID, locations []types.NodeID) error {
	return p.fetch(ctx, id, locations, nil)
}

// FetchObject is Fetch for a caller that has just read the object's record:
// the pull takes locations, size and spill state from info instead of
// reading the record a second time (one control-plane RPC per pull on a
// sharded control plane).
func (p *PullManager) FetchObject(ctx context.Context, info types.ObjectInfo) error {
	return p.fetch(ctx, info.ID, info.Locations, &info)
}

// fetch is the pull both entry points share; rec is the object's record
// when the caller had it, nil when the pull must read it.
func (p *PullManager) fetch(ctx context.Context, id types.ObjectID, locations []types.NodeID, rec *types.ObjectInfo) error {
	if p.store.Contains(id) {
		return nil
	}
	p.mu.Lock()
	if ch, ok := p.inflight[id]; ok {
		p.mu.Unlock()
		select {
		case err := <-ch:
			// Propagate and re-arm for any other waiters.
			ch <- err
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ch := make(chan error, 1)
	p.inflight[id] = ch
	p.mu.Unlock()

	sp := p.obs.tracer.Begin("pull", "lifetime.pull")
	start := time.Now()
	err := p.pull(ctx, id, locations, rec)
	p.mu.Lock()
	delete(p.inflight, id)
	p.mu.Unlock()
	ch <- err
	if err == nil {
		p.objects.Add(1)
		p.obs.objects.Inc()
		p.obs.pullNs.Observe(time.Since(start).Nanoseconds())
		sp.ObjectID = id
		sp.End()
	}
	return err
}

// maxDeliverBytes is the largest return value Deliver sends to the task's
// origin. Up to here the transfer costs less than the hop it rides on;
// larger results wait to be asked for and move by the chunked pull, with
// its per-peer windows, like every dependency fetch does.
const maxDeliverBytes = 64 << 10

// deliverTimeout bounds how long one delivery holds its task's executor
// slot. A healthy origin answers within a network round trip; this is the
// ceiling for one that is stalled.
const deliverTimeout = time.Second

// Deliver sends a return value of a task that finished on this node to the
// store of the node the task was submitted through, where the Get on its
// future most likely blocks: the bytes arrive one hop after the function
// returned, instead of after the location is published, the waiter woken
// and the object pulled (DESIGN.md §6.3). The executor calls it BEFORE
// storing the value locally, so the origin never learns of a remote copy to
// pull while the delivery is still on its way.
//
// Delivery is an optimization and nothing depends on it: no origin, this
// node its own origin, a value over maxDeliverBytes, an origin that is
// dead, draining, full, failing or silent for deliverTimeout — every such
// case returns with nothing delivered, and the origin pulls the value when
// it is asked for, as it always did.
func (p *PullManager) Deliver(origin types.NodeID, task types.TaskID, trace uint64, id types.ObjectID, data []byte) {
	if origin.IsNil() || origin == p.store.Node() || len(data) > maxDeliverBytes {
		return
	}
	sp := p.obs.tracer.Begin("push", "objectstore.push")
	sp.TaskID, sp.ObjectID, sp.Trace = task, id, trace
	var err error
	if addr, ok := p.peerAddr(origin); ok {
		_, err = p.callWithin(addr, objectstore.PushMethod, objectstore.EncodePushRequest(id, data), deliverTimeout)
	} else {
		err = fmt.Errorf("lifetime: origin %v is not a live node", origin)
	}
	if err != nil {
		p.obs.pushFailed.Inc()
		sp.Detail = "not delivered: " + err.Error()
	} else {
		p.obs.pushSent.Inc()
		p.obs.pushBytes.Add(int64(len(data)))
	}
	sp.End()
}

// peer is one resolved source for a pull.
type peer struct {
	node    types.NodeID
	addr    string
	spilled bool // this peer's copy is on its disk tier
}

// resolvePeers maps candidate locations to dialable peers, memory-resident
// copies first (restoring from a peer's disk costs that peer a spill-tier
// read, so memory copies are strictly cheaper sources).
func (p *PullManager) resolvePeers(locations []types.NodeID, rec *types.ObjectInfo) []peer {
	var mem, disk []peer
	for _, loc := range locations {
		if loc == p.store.Node() {
			continue // stale self-location; the object is gone locally
		}
		addr, ok := p.peerAddr(loc)
		if !ok {
			continue
		}
		pr := peer{node: loc, addr: addr}
		if rec != nil && rec.IsSpilledOn(loc) {
			pr.spilled = true
			disk = append(disk, pr)
		} else {
			mem = append(mem, pr)
		}
	}
	return append(mem, disk...)
}

func (p *PullManager) pull(ctx context.Context, id types.ObjectID, locations []types.NodeID, rec *types.ObjectInfo) error {
	if rec == nil {
		if info, ok := p.ctrl.GetObject(id); ok {
			rec = &info
		}
	}
	peers := p.resolvePeers(locations, rec)
	if len(peers) == 0 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("lifetime: no reachable locations for %v", id)
	}
	size := int64(0)
	if rec != nil {
		size = rec.Size
	}
	if size <= p.cfg.ChunkSize {
		return p.pullWhole(ctx, id, peers)
	}
	return p.pullChunked(ctx, id, size, peers)
}

// pullWhole is the small-object fast path: one round trip to the first
// peer that answers.
func (p *PullManager) pullWhole(ctx context.Context, id types.ObjectID, peers []peer) error {
	var lastErr error
	for _, pr := range peers {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		data, err := p.call(pr.addr, objectstore.PullMethod, id[:])
		if err != nil {
			lastErr = err
			continue
		}
		p.chunks.Add(1)
		p.bytes.Add(int64(len(data)))
		p.obs.chunks.Inc()
		p.obs.bytes.Add(int64(len(data)))
		return p.store.Put(id, data)
	}
	return lastErr
}

// pullChunked transfers a large object as bounded-concurrency chunks. Each
// chunk starts on a peer picked round-robin and falls back to the
// remaining peers on error; a per-peer window provides backpressure and a
// global semaphore bounds the pull's total parallelism. The checked chunk
// responses are held until the last one lands and then joined into the
// stored copy in one allocation that is not zeroed first (DESIGN.md §6.3).
func (p *PullManager) pullChunked(ctx context.Context, id types.ObjectID, size int64, peers []peer) error {
	nchunks := int((size + p.cfg.ChunkSize - 1) / p.cfg.ChunkSize)
	parts := make([][]byte, nchunks)
	slots := make(chan struct{}, maxConcurrent)

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	for c := 0; c < nchunks; c++ {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		// A chunk never started must fail the pull even when the slot was
		// won: stored with a chunk missing, the copy would be short.
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() { <-slots }()
			offset := int64(c) * p.cfg.ChunkSize
			length := p.cfg.ChunkSize
			if offset+length > size {
				length = size - offset
			}
			resp, err := p.pullChunk(ctx, id, offset, length, peers, c)
			if err != nil {
				fail(err)
				return
			}
			parts[c] = resp
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	p.bytes.Add(size)
	p.obs.bytes.Add(size)
	return p.store.Put(id, bytes.Join(parts, nil))
}

// pullChunk fetches one byte range, trying each peer at most once starting
// from the round-robin choice for chunk c. The response it returns may alias
// the serving store's bytes (in process) and must not be written.
func (p *PullManager) pullChunk(ctx context.Context, id types.ObjectID, offset, length int64, peers []peer, c int) ([]byte, error) {
	req := objectstore.EncodeChunkRequest(id, offset, length)
	sp := p.obs.tracer.Begin("pull", "lifetime.pull.chunk")
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < len(peers); attempt++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		pr := peers[(c+attempt)%len(peers)]
		win := p.window(pr.addr)
		select {
		case win <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		resp, err := p.call(pr.addr, objectstore.PullChunkMethod, req)
		<-win
		if err != nil {
			lastErr = err
			continue
		}
		if int64(len(resp)) != length {
			lastErr = fmt.Errorf("lifetime: chunk at %d of %v: got %d bytes, want %d", offset, id, len(resp), length)
			continue
		}
		p.chunks.Add(1)
		p.obs.chunks.Inc()
		p.obs.chunkNs.Observe(time.Since(start).Nanoseconds())
		sp.ObjectID = id
		sp.Detail = fmt.Sprintf("chunk %d @%d+%d from %s", c, offset, length, pr.node)
		sp.End()
		return resp, nil
	}
	return nil, lastErr
}

func (p *PullManager) conn(addr string) (transport.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Refuse new connections once closed: a migration pull racing Close
	// would otherwise dial and cache a client after the map was drained,
	// leaking the connection (Close's drain and this insert are
	// serialized on p.mu, so the check is race-free).
	select {
	case <-p.stop:
		return nil, fmt.Errorf("lifetime: pull manager closed")
	default:
	}
	if c, ok := p.conns[addr]; ok {
		return c, nil
	}
	c, err := p.net.Dial(addr)
	if err != nil {
		return nil, err
	}
	p.conns[addr] = c
	return c, nil
}

// call makes one unary call to the peer at addr over its cached
// connection. An error the peer's handler answered with (a stale location's
// ErrNotFound, a refused push) leaves the connection alone: it is healthy,
// and over TCP closing it would fail every other call in flight to that
// peer. Only a connection failure drops it, so the next call redials.
func (p *PullManager) call(addr, method string, payload []byte) ([]byte, error) {
	return p.callWithin(addr, method, payload, 0)
}

// callWithin is call given up on after limit (0: never). transport.Client
// takes no deadline, so the limit is a watchdog that closes the connection:
// over a real network that fails the pending call with a connection error,
// which is also what the next caller needs — a redial. (In process a call
// is a function call on this goroutine and only ends when the handler
// does; nothing there outlasts the handler's own bounded waits.) The call
// stays on the caller's goroutine on purpose: a goroutine per call would
// grow a fresh stack through the whole handler chain every time.
func (p *PullManager) callWithin(addr, method string, payload []byte, limit time.Duration) ([]byte, error) {
	client, err := p.conn(addr)
	if err != nil {
		p.forget(addr, nil)
		return nil, err
	}
	if limit > 0 {
		watchdog := time.AfterFunc(limit, func() { p.forget(addr, client) })
		defer watchdog.Stop()
	}
	resp, err := client.Call(method, payload)
	if err != nil && !transport.IsRemote(err) {
		p.forget(addr, client)
	}
	return resp, err
}

// forget drops what is cached about the peer at addr after a connection
// failure: the connection, if it is still the one that failed (failed nil:
// the dial itself failed), and every node's address that resolved to addr —
// the peer may be dead, and resolveAddr is what knows.
func (p *PullManager) forget(addr string, failed transport.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.conns[addr]; ok && c == failed {
		delete(p.conns, addr)
		c.Close()
	}
	for node, a := range p.addrs {
		if a == addr {
			delete(p.addrs, node)
		}
	}
}

// peerAddr is resolveAddr behind a cache, so that a pull or a delivery to
// a known peer costs no node-table read. An entry lives until a connection
// to its address fails.
func (p *PullManager) peerAddr(node types.NodeID) (string, bool) {
	p.mu.Lock()
	addr, ok := p.addrs[node]
	p.mu.Unlock()
	if ok {
		return addr, true
	}
	if addr, ok = p.resolveAddr(node); ok {
		p.mu.Lock()
		p.addrs[node] = addr
		p.mu.Unlock()
	}
	return addr, ok
}

// window returns the per-peer backpressure semaphore for addr.
func (p *PullManager) window(addr string) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	win, ok := p.windows[addr]
	if !ok {
		win = make(chan struct{}, perPeerWindow)
		p.windows[addr] = win
	}
	return win
}

// Close aborts migration pulls and releases cached connections.
func (p *PullManager) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.baseCancel()
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, c := range p.conns {
		c.Close()
		delete(p.conns, addr)
	}
}
