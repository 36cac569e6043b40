package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// echoServer builds a server with an echo method, a failing method, and a
// counting stream.
func echoServer() *Server {
	srv := NewServer()
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	srv.Handle("fail", func(p []byte) ([]byte, error) { return nil, errors.New("nope") })
	srv.HandleStream("count", func(p []byte, st ServerStream) error {
		n := int(p[0])
		for i := 0; i < n; i++ {
			if err := st.Send([]byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	srv.HandleStream("forever", func(p []byte, st ServerStream) error {
		<-st.Done()
		return nil
	})
	return srv
}

// runNetworkSuite exercises one Network implementation end to end.
func runNetworkSuite(t *testing.T, nw Network, addr string) {
	t.Helper()
	srv := echoServer()
	l, err := nw.Listen(addr, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	addr = l.Addr()
	c, err := nw.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	t.Run("unary", func(t *testing.T) {
		resp, err := c.Call("echo", []byte("hi"))
		if err != nil || !bytes.Equal(resp, []byte("hi")) {
			t.Fatalf("echo = %q, %v", resp, err)
		}
	})
	t.Run("unary error", func(t *testing.T) {
		_, err := c.Call("fail", nil)
		if err == nil || err.Error() != "nope" {
			t.Fatalf("err = %v", err)
		}
		if !IsRemote(err) {
			t.Fatalf("a handler's error is not a RemoteError: %T", err)
		}
	})
	t.Run("no method", func(t *testing.T) {
		_, err := c.Call("missing", nil)
		if err == nil {
			t.Fatal("missing method accepted")
		}
		if !IsRemote(err) {
			t.Fatalf("the server's refusal of a method is not a RemoteError: %T", err)
		}
	})
	t.Run("closed client is not a remote error", func(t *testing.T) {
		c2, err := nw.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c2.Close()
		if _, err := c2.Call("echo", nil); err == nil || IsRemote(err) {
			t.Fatalf("call on a closed client: %v (remote: %v)", err, IsRemote(err))
		}
	})
	t.Run("concurrent calls", func(t *testing.T) {
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				payload := []byte(fmt.Sprintf("m%d", i))
				resp, err := c.Call("echo", payload)
				if err != nil || !bytes.Equal(resp, payload) {
					t.Errorf("call %d: %q, %v", i, resp, err)
				}
			}(i)
		}
		wg.Wait()
	})
	t.Run("stream", func(t *testing.T) {
		st, err := c.OpenStream("count", []byte{5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			msg, err := st.Recv()
			if err != nil || int(msg[0]) != i {
				t.Fatalf("recv %d: %v, %v", i, msg, err)
			}
		}
		if _, err := st.Recv(); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
		st.Close()
	})
	t.Run("stream client close", func(t *testing.T) {
		st, err := c.OpenStream("forever", nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			st.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("stream Close hung")
		}
	})
	t.Run("stream no method", func(t *testing.T) {
		st, err := c.OpenStream("missing-stream", nil)
		if err == nil {
			// TCP reports the failure on first Recv instead of at open.
			if _, rerr := st.Recv(); rerr == nil || rerr == io.EOF {
				t.Fatal("missing stream method accepted")
			}
			st.Close()
		}
	})
}

func TestInprocNetwork(t *testing.T) { runNetworkSuite(t, NewInproc(0), "node1") }

func TestTCPNetwork(t *testing.T) { runNetworkSuite(t, TCP{}, "127.0.0.1:0") }

func TestInprocLatencyInjection(t *testing.T) {
	nw := NewInproc(2 * time.Millisecond)
	srv := echoServer()
	l, _ := nw.Listen("n", srv)
	defer l.Close()
	c, _ := nw.Dial("n")
	defer c.Close()
	start := time.Now()
	if _, err := c.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 4*time.Millisecond {
		t.Fatalf("round trip %v < 2 hops of 2ms", rtt)
	}
}

func TestInprocAddressReuseRejected(t *testing.T) {
	nw := NewInproc(0)
	l, err := nw.Listen("a", NewServer())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("a", NewServer()); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	l.Close()
	// Address usable again after close.
	l2, err := nw.Listen("a", NewServer())
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
}

func TestInprocDialUnknown(t *testing.T) {
	nw := NewInproc(0)
	if _, err := nw.Dial("ghost"); err == nil {
		t.Fatal("dial of unknown address succeeded")
	}
}

func TestClientCloseRejectsCalls(t *testing.T) {
	nw := NewInproc(0)
	l, _ := nw.Listen("n", echoServer())
	defer l.Close()
	c, _ := nw.Dial("n")
	c.Close()
	if _, err := c.Call("echo", nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	srv := NewServer()
	srv.Handle("m", func(p []byte) ([]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	srv.Handle("m", func(p []byte) ([]byte, error) { return nil, nil })
}

func TestTCPLargePayload(t *testing.T) {
	srv := echoServer()
	l, err := TCP{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := TCP{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := c.Call("echo", big)
	if err != nil || !bytes.Equal(resp, big) {
		t.Fatalf("large echo failed: %v (len %d)", err, len(resp))
	}
}

// A call cut off by its connection closing reports ErrClosed, not the
// server's answer: callers that cache clients redial on the first and keep
// the connection on the second.
func TestTCPCloseFailsPendingCallWithErrClosed(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	srv := NewServer()
	srv.Handle("hold", func(p []byte) ([]byte, error) {
		close(entered)
		<-release
		return nil, nil
	})
	l, err := TCP{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := TCP{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call("hold", nil)
		errc <- err
	}()
	<-entered
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) || IsRemote(err) {
			t.Fatalf("pending call ended with %v (remote: %v), want ErrClosed", err, IsRemote(err))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
}

func TestTCPServerStreamStopsOnClientDisconnect(t *testing.T) {
	handlerDone := make(chan struct{})
	srv := NewServer()
	srv.HandleStream("hold", func(p []byte, st ServerStream) error {
		<-st.Done()
		close(handlerDone)
		return nil
	})
	l, err := TCP{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := TCP{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenStream("hold", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case <-handlerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("server stream not torn down on client disconnect")
	}
}
