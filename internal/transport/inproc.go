package transport

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Inproc is an in-process Network. Every message direction pays HopLatency,
// modelling the cluster interconnect: a unary call costs two hops (request
// + response), matching the local-vs-remote latency shape of the paper's
// Section 4.1 microbenchmarks. Zero HopLatency gives a zero-cost network.
// Bandwidth, when set, additionally charges payload-proportional transfer
// time per message, so moving a large object costs more than a control
// message — the regime where the chunked pull protocol's parallel streams
// pay off (concurrent transfers overlap, modelling independent peer links).
type Inproc struct {
	// HopLatency is the one-way message delay.
	HopLatency time.Duration
	// Bandwidth is the per-stream payload rate in bytes/second; 0 means
	// infinite (payload size costs nothing).
	Bandwidth int64

	mu      sync.RWMutex
	servers map[string]*Server
}

// NewInproc creates an in-process network with the given one-way latency.
func NewInproc(hop time.Duration) *Inproc {
	return &Inproc{HopLatency: hop, servers: make(map[string]*Server)}
}

// NewInprocBandwidth creates an in-process network with one-way latency and
// a per-stream bandwidth limit.
func NewInprocBandwidth(hop time.Duration, bytesPerSec int64) *Inproc {
	return &Inproc{HopLatency: hop, Bandwidth: bytesPerSec, servers: make(map[string]*Server)}
}

type inprocListener struct {
	net  *Inproc
	addr string
}

func (l *inprocListener) Close() error {
	l.net.mu.Lock()
	delete(l.net.servers, l.addr)
	l.net.mu.Unlock()
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// Listen implements Network.
func (n *Inproc) Listen(addr string, srv *Server) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.servers[addr]; dup {
		return nil, fmt.Errorf("transport: inproc address %q in use", addr)
	}
	n.servers[addr] = srv
	return &inprocListener{net: n, addr: addr}, nil
}

// Dial implements Network.
func (n *Inproc) Dial(addr string) (Client, error) {
	n.mu.RLock()
	srv, ok := n.servers[addr]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: no inproc server at %q", addr)
	}
	return &inprocClient{net: n, srv: srv, closed: make(chan struct{})}, nil
}

func (n *Inproc) hop() {
	if n.HopLatency > 0 {
		time.Sleep(n.HopLatency)
	}
}

// hopN is hop plus payload-proportional transfer time under the bandwidth
// model.
func (n *Inproc) hopN(payloadBytes int) {
	d := n.HopLatency
	if n.Bandwidth > 0 && payloadBytes > 0 {
		d += time.Duration(int64(payloadBytes) * int64(time.Second) / n.Bandwidth)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

type inprocClient struct {
	net  *Inproc
	srv  *Server
	once sync.Once

	closed chan struct{}
}

func (c *inprocClient) Call(method string, payload []byte) ([]byte, error) {
	select {
	case <-c.closed:
		return nil, ErrClosed
	default:
	}
	c.net.hopN(len(payload)) // request hop
	resp, err := c.srv.dispatch(method, payload)
	c.net.hopN(len(resp)) // response hop
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	return resp, nil
}

func (c *inprocClient) OpenStream(method string, payload []byte) (Stream, error) {
	select {
	case <-c.closed:
		return nil, ErrClosed
	default:
	}
	h, ok := c.srv.streamHandler(method)
	if !ok {
		return nil, fmt.Errorf("%w: stream %s", ErrNoMethod, method)
	}
	st := &inprocStream{
		net:  c.net,
		msgs: make(chan []byte, 16),
		done: make(chan struct{}),
		errc: make(chan error, 1),
	}
	c.net.hop() // stream-open hop
	go func() {
		err := h(payload, st)
		st.errc <- err
		st.closeServerSide()
	}()
	go func() {
		// Tear the stream down if the client connection closes.
		select {
		case <-c.closed:
			st.Close()
		case <-st.done:
		}
	}()
	return st, nil
}

func (c *inprocClient) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

type inprocStream struct {
	net  *Inproc
	msgs chan []byte
	errc chan error

	mu     sync.Mutex
	closed bool
	done   chan struct{}

	sendMu sync.Mutex // serializes Send against closeServerSide
	ended  bool
}

// Send implements ServerStream.
func (s *inprocStream) Send(payload []byte) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.ended {
		return ErrClosed
	}
	msg := make([]byte, len(payload))
	copy(msg, payload)
	s.net.hop()
	select {
	case s.msgs <- msg:
		return nil
	case <-s.done:
		return ErrClosed
	}
}

// Done implements ServerStream.
func (s *inprocStream) Done() <-chan struct{} { return s.done }

func (s *inprocStream) closeServerSide() {
	s.sendMu.Lock()
	if !s.ended {
		s.ended = true
		close(s.msgs)
	}
	s.sendMu.Unlock()
}

// Recv implements Stream.
func (s *inprocStream) Recv() ([]byte, error) {
	msg, ok := <-s.msgs
	if ok {
		return msg, nil
	}
	// Channel closed: stream ended by handler return or Close.
	select {
	case err := <-s.errc:
		if err != nil {
			return nil, err
		}
	default:
	}
	return nil, io.EOF
}

// Close implements Stream (client side).
func (s *inprocStream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	return nil
}
