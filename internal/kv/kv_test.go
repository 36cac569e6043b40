package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New(4)
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	s.Put("k", []byte("v1"))
	v, ok := s.Get("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	s.Put("k", []byte("v2"))
	v, _ = s.Get("k")
	if string(v) != "v2" {
		t.Fatal("Put did not replace")
	}
	if !s.Delete("k") {
		t.Fatal("Delete reported missing")
	}
	if s.Delete("k") {
		t.Fatal("second Delete reported present")
	}
}

func TestValueIsolation(t *testing.T) {
	s := New(1)
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Put aliased caller buffer")
	}
	v[0] = 'Y'
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get returned aliased buffer")
	}
}

func TestListAppend(t *testing.T) {
	s := New(4)
	for i := 0; i < 5; i++ {
		s.Append("l", []byte{byte(i)})
	}
	if s.ListLen("l") != 5 {
		t.Fatalf("ListLen = %d", s.ListLen("l"))
	}
	items := s.List("l")
	for i, it := range items {
		if it[0] != byte(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
	if len(s.List("nope")) != 0 {
		t.Fatal("missing list non-empty")
	}
}

func TestKeysPrefixScan(t *testing.T) {
	s := New(8)
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("task:%02d", i), []byte("x"))
	}
	s.Put("obj:1", []byte("y"))
	s.Append("events:a", []byte("e"))
	if got := len(s.Keys("task:")); got != 20 {
		t.Fatalf("Keys(task:) = %d", got)
	}
	if got := len(s.Keys("obj:")); got != 1 {
		t.Fatalf("Keys(obj:) = %d", got)
	}
	if got := len(s.ListKeys("events:")); got != 1 {
		t.Fatalf("ListKeys(events:) = %d", got)
	}
}

// Property: shard routing is stable and within range for any key.
func TestShardRoutingStable(t *testing.T) {
	s := New(16)
	f := func(key string) bool {
		i := s.ShardIndex(key)
		return i >= 0 && i < 16 && i == s.ShardIndex(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Put then Get returns exactly what was put, for arbitrary keys
// and values, across shard counts.
func TestQuickPutGet(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		s := New(shards)
		f := func(key string, val []byte) bool {
			s.Put(key, val)
			got, ok := s.Get(key)
			return ok && bytes.Equal(got, val)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

func TestConcurrentCounters(t *testing.T) {
	s := New(8)
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Append("ctr", []byte{byte(g)})
			}
		}()
	}
	wg.Wait()
	if n := s.ListLen("ctr"); n != goroutines*perG {
		t.Fatalf("lost appends: %d != %d", n, goroutines*perG)
	}
}

func TestNewClampsShards(t *testing.T) {
	if New(0).NumShards() != 1 || New(-3).NumShards() != 1 {
		t.Fatal("shard clamp broken")
	}
}

func TestOpsCounter(t *testing.T) {
	s := New(1)
	before := s.Ops()
	s.Put("a", nil)
	s.Get("a")
	if s.Ops() < before+2 {
		t.Fatal("ops counter not advancing")
	}
}
