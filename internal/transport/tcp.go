package transport

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP is a Network over real sockets, used by cmd/raynode to run a cluster
// as separate OS processes. Wire format: 4-byte big-endian frame length
// followed by a gob-encoded frame.
type TCP struct{}

// frameKind discriminates the multiplexed message types on one connection.
type frameKind uint8

const (
	frameRequest frameKind = iota + 1
	frameResponse
	frameStreamOpen
	frameStreamMsg
	frameStreamEnd // sent by server when a stream handler returns
	frameStreamStop
)

type frame struct {
	Kind    frameKind
	ID      uint64 // request or stream ID, client-assigned
	Method  string
	Payload []byte
	Err     string
}

const maxFrameSize = 64 << 20 // 64 MiB guard against corrupt length prefixes

func writeFrame(w io.Writer, mu *sync.Mutex, f *frame) error {
	var buf []byte
	{
		var sink frameBuffer
		if err := gob.NewEncoder(&sink).Encode(f); err != nil {
			return fmt.Errorf("transport: encode frame: %w", err)
		}
		buf = sink.b
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(buf)))
	mu.Lock()
	defer mu.Unlock()
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

type frameBuffer struct{ b []byte }

func (fb *frameBuffer) Write(p []byte) (int, error) {
	fb.b = append(fb.b, p...)
	return len(p), nil
}

func readFrame(r io.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	var f frame
	if err := gob.NewDecoder(&byteReader{b: buf}).Decode(&f); err != nil {
		return nil, fmt.Errorf("transport: decode frame: %w", err)
	}
	return &f, nil
}

type byteReader struct {
	b []byte
	i int
}

func (br *byteReader) Read(p []byte) (int, error) {
	if br.i >= len(br.b) {
		return 0, io.EOF
	}
	n := copy(p, br.b[br.i:])
	br.i += n
	return n, nil
}

// --- server side ---

type tcpListener struct {
	ln   net.Listener
	wg   sync.WaitGroup
	once sync.Once
}

func (l *tcpListener) Close() error {
	var err error
	l.once.Do(func() {
		err = l.ln.Close()
		l.wg.Wait()
	})
	return err
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

// Listen implements Network.
func (TCP) Listen(addr string, srv *Server) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &tcpListener{ln: ln}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveConn(conn, srv)
		}
	}()
	return l, nil
}

// tcpServerStream implements ServerStream over one connection.
type tcpServerStream struct {
	id      uint64
	conn    net.Conn
	writeMu *sync.Mutex
	done    chan struct{}
	once    sync.Once
}

func (s *tcpServerStream) Send(payload []byte) error {
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	return writeFrame(s.conn, s.writeMu, &frame{Kind: frameStreamMsg, ID: s.id, Payload: payload})
}

func (s *tcpServerStream) Done() <-chan struct{} { return s.done }

func (s *tcpServerStream) stop() { s.once.Do(func() { close(s.done) }) }

func serveConn(conn net.Conn, srv *Server) {
	defer conn.Close()
	var writeMu sync.Mutex
	var mu sync.Mutex
	streams := make(map[uint64]*tcpServerStream)
	defer func() {
		mu.Lock()
		for _, st := range streams {
			st.stop()
		}
		mu.Unlock()
	}()
	for {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		switch f.Kind {
		case frameRequest:
			go func(f *frame) {
				resp, err := srv.dispatch(f.Method, f.Payload)
				out := &frame{Kind: frameResponse, ID: f.ID, Payload: resp}
				if err != nil {
					out.Err = err.Error()
				}
				// Best effort: if the conn died the reader loop exits anyway.
				_ = writeFrame(conn, &writeMu, out)
			}(f)
		case frameStreamOpen:
			h, ok := srv.streamHandler(f.Method)
			if !ok {
				_ = writeFrame(conn, &writeMu, &frame{Kind: frameStreamEnd, ID: f.ID, Err: ErrNoMethod.Error() + ": " + f.Method})
				continue
			}
			st := &tcpServerStream{id: f.ID, conn: conn, writeMu: &writeMu, done: make(chan struct{})}
			mu.Lock()
			streams[f.ID] = st
			mu.Unlock()
			go func(f *frame) {
				err := h(f.Payload, st)
				end := &frame{Kind: frameStreamEnd, ID: f.ID}
				if err != nil {
					end.Err = err.Error()
				}
				_ = writeFrame(conn, &writeMu, end)
				st.stop()
				mu.Lock()
				delete(streams, f.ID)
				mu.Unlock()
			}(f)
		case frameStreamStop:
			mu.Lock()
			if st, ok := streams[f.ID]; ok {
				st.stop()
				delete(streams, f.ID)
			}
			mu.Unlock()
		}
	}
}

// --- client side ---

type tcpClient struct {
	conn    net.Conn
	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *frame      // unary calls
	streams map[uint64]*tcpClientStream // open streams
	closed  bool
}

// Dial implements Network.
func (TCP) Dial(addr string) (Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpClient{
		conn:    conn,
		pending: make(map[uint64]chan *frame),
		streams: make(map[uint64]*tcpClientStream),
	}
	go c.readLoop()
	return c, nil
}

func (c *tcpClient) readLoop() {
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			c.teardown(err)
			return
		}
		switch f.Kind {
		case frameResponse:
			c.mu.Lock()
			ch := c.pending[f.ID]
			delete(c.pending, f.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- f
			}
		case frameStreamMsg, frameStreamEnd:
			c.mu.Lock()
			st := c.streams[f.ID]
			if f.Kind == frameStreamEnd {
				delete(c.streams, f.ID)
			}
			c.mu.Unlock()
			if st != nil {
				st.deliver(f)
			}
		}
	}
}

func (c *tcpClient) teardown(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending := c.pending
	streams := c.streams
	c.pending = make(map[uint64]chan *frame)
	c.streams = make(map[uint64]*tcpClientStream)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- nil // no response will come: Call reports ErrClosed
	}
	for _, st := range streams {
		st.deliver(&frame{Kind: frameStreamEnd, Err: io.EOF.Error()})
	}
}

func (c *tcpClient) allocID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

func (c *tcpClient) Call(method string, payload []byte) ([]byte, error) {
	id := c.allocID()
	ch := make(chan *frame, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()
	if err := writeFrame(c.conn, &c.writeMu, &frame{Kind: frameRequest, ID: id, Method: method, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	f := <-ch
	if f == nil {
		return nil, ErrClosed
	}
	if f.Err != "" {
		return nil, &RemoteError{Msg: f.Err}
	}
	return f.Payload, nil
}

type tcpClientStream struct {
	id     uint64
	client *tcpClient
	msgs   chan *frame
	once   sync.Once
}

func (s *tcpClientStream) deliver(f *frame) {
	// The channel is unbounded in effect: deliver runs on the read loop, so
	// use a generous buffer and fall back to dropping the connection-fatal
	// case into a goroutine to avoid stalling other traffic.
	select {
	case s.msgs <- f:
	default:
		go func() { s.msgs <- f }()
	}
}

func (s *tcpClientStream) Recv() ([]byte, error) {
	f, ok := <-s.msgs
	if !ok {
		return nil, io.EOF
	}
	if f.Kind == frameStreamEnd {
		if f.Err != "" && f.Err != io.EOF.Error() {
			return nil, errors.New(f.Err)
		}
		return nil, io.EOF
	}
	return f.Payload, nil
}

func (s *tcpClientStream) Close() error {
	s.once.Do(func() {
		s.client.mu.Lock()
		delete(s.client.streams, s.id)
		s.client.mu.Unlock()
		_ = writeFrame(s.client.conn, &s.client.writeMu, &frame{Kind: frameStreamStop, ID: s.id})
		go func() { s.msgs <- &frame{Kind: frameStreamEnd, Err: io.EOF.Error()} }()
	})
	return nil
}

func (c *tcpClient) OpenStream(method string, payload []byte) (Stream, error) {
	id := c.allocID()
	st := &tcpClientStream{id: id, client: c, msgs: make(chan *frame, 256)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.streams[id] = st
	c.mu.Unlock()
	if err := writeFrame(c.conn, &c.writeMu, &frame{Kind: frameStreamOpen, ID: id, Method: method, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.streams, id)
		c.mu.Unlock()
		return nil, err
	}
	return st, nil
}

func (c *tcpClient) Close() error {
	c.teardown(ErrClosed)
	return c.conn.Close()
}
