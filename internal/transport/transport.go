// Package transport provides the messaging substrate between nodes and
// between nodes and the control plane. Two interchangeable implementations
// exist: an in-process network with configurable per-hop latency (used by
// tests and benchmarks to model the cluster network, experiment E4) and a
// real TCP network (used by cmd/raynode for multi-process clusters). Both
// offer unary RPC and server-push streams; streams carry control-plane
// subscriptions across the network.
package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/metrics"
)

// Handler serves one unary RPC method.
type Handler func(payload []byte) ([]byte, error)

// ServerStream is the server's sending end of a stream.
type ServerStream interface {
	// Send pushes one message to the client. It returns an error once the
	// stream is closed by either side.
	Send(payload []byte) error
	// Done is closed when the client goes away; long-lived handlers select
	// on it.
	Done() <-chan struct{}
}

// StreamHandler serves one streaming method. Returning ends the stream.
type StreamHandler func(payload []byte, stream ServerStream) error

// Stream is the client's receiving end of a stream.
type Stream interface {
	// Recv blocks for the next message; io.EOF signals a clean end.
	Recv() ([]byte, error)
	Close() error
}

// Client is a connection to one server.
type Client interface {
	Call(method string, payload []byte) ([]byte, error)
	OpenStream(method string, payload []byte) (Stream, error)
	Close() error
}

// Listener is a bound server; it serves until closed.
type Listener interface {
	io.Closer
	// Addr is the address clients dial: the bound one, so a TCP listen on
	// port 0 reports the port the kernel picked.
	Addr() string
}

// Network abstracts how servers bind and clients connect.
type Network interface {
	// Listen binds srv at addr and serves until the returned listener closes.
	Listen(addr string, srv *Server) (Listener, error)
	// Dial connects to the server at addr.
	Dial(addr string) (Client, error)
}

// ErrNoMethod is returned for calls to unregistered methods.
var ErrNoMethod = errors.New("transport: no such method")

// ErrClosed is returned from operations on closed clients or streams.
var ErrClosed = errors.New("transport: closed")

// RemoteError is the error Call returns when the server answered with one:
// the request reached a live server and its handler (or the method lookup)
// refused it. Every other error from Call is a connection failure. The
// distinction decides what a caller holding a cached Client does next — a
// RemoteError says the connection is healthy and the other calls sharing it
// must not be torn down; anything else says redial. Only the server-side
// error's text crosses a real network, so that is all it carries on either
// one.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// IsRemote reports whether err is a server's answer (a RemoteError) rather
// than a connection failure.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Server is a method registry shared by all Network implementations.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	streams  map[string]StreamHandler

	// Instrumentation (SetMetrics): dispatch is the single choke point
	// every unary call passes through regardless of Network, so these
	// three instruments cover TCP and in-process traffic alike.
	msgs     *metrics.Counter
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		streams:  make(map[string]StreamHandler),
	}
}

// Handle registers a unary handler for method.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("transport: duplicate handler for %s", method))
	}
	s.handlers[method] = h
}

// HandleStream registers a streaming handler for method.
func (s *Server) HandleStream(method string, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.streams[method]; dup {
		panic(fmt.Sprintf("transport: duplicate stream handler for %s", method))
	}
	s.streams[method] = h
}

func (s *Server) handler(method string) (Handler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.handlers[method]
	return h, ok
}

func (s *Server) streamHandler(method string) (StreamHandler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.streams[method]
	return h, ok
}

// SetMetrics attaches message/byte counters to the server's dispatch
// path. Call before serving; a nil registry disables instrumentation.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	s.msgs = reg.Counter("transport.messages")
	s.bytesIn = reg.Counter("transport.bytes.in")
	s.bytesOut = reg.Counter("transport.bytes.out")
}

// dispatch serves one unary call (shared by both networks).
func (s *Server) dispatch(method string, payload []byte) ([]byte, error) {
	h, ok := s.handler(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, method)
	}
	if s.msgs != nil {
		s.msgs.Inc()
		s.bytesIn.Add(int64(len(payload)))
	}
	resp, err := h(payload)
	if s.bytesOut != nil {
		s.bytesOut.Add(int64(len(resp)))
	}
	return resp, err
}
