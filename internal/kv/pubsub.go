package kv

import "sync"

// Subscription receives messages published to one channel. Delivery is
// lossless until Close: an internal unbounded queue decouples publishers
// from slow subscribers, because a dropped object-ready notification would
// wedge the dataflow dispatcher. Messages arrive in publish order.
type Subscription struct {
	channel string
	store   *Store

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool

	out  chan []byte
	stop chan struct{}
	done chan struct{}
}

// C returns the receive channel. It is closed when the subscription is
// closed and the queue has drained.
func (sub *Subscription) C() <-chan []byte { return sub.out }

// Close detaches the subscription. Pending queued messages are discarded
// and C is closed. Close is idempotent.
func (sub *Subscription) Close() {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return
	}
	sub.closed = true
	close(sub.stop)
	sub.cond.Signal()
	sub.mu.Unlock()

	sub.store.unsubscribe(sub)
	<-sub.done
}

func (sub *Subscription) push(msg []byte) {
	sub.mu.Lock()
	if !sub.closed {
		sub.queue = append(sub.queue, msg)
		sub.cond.Signal()
	}
	sub.mu.Unlock()
}

// pump moves messages from the queue to the out channel.
func (sub *Subscription) pump() {
	defer close(sub.done)
	defer close(sub.out)
	for {
		sub.mu.Lock()
		for len(sub.queue) == 0 && !sub.closed {
			sub.cond.Wait()
		}
		if sub.closed {
			sub.mu.Unlock()
			return
		}
		msg := sub.queue[0]
		sub.queue = sub.queue[1:]
		sub.mu.Unlock()
		select {
		case sub.out <- msg:
		case <-sub.stop:
			return
		}
	}
}

// Subscribe registers for messages published to channel. The caller must
// Close the subscription when done.
func (s *Store) Subscribe(channel string) *Subscription {
	sub := &Subscription{
		channel: channel,
		store:   s,
		out:     make(chan []byte, 16),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	sub.cond = sync.NewCond(&sub.mu)
	sh := s.shardFor(channel)
	sh.mu.Lock()
	sh.subs[channel] = append(sh.subs[channel], sub)
	sh.mu.Unlock()
	go sub.pump()
	return sub
}

// Publish delivers payload to every current subscriber of channel.
// Publishing to a channel with no subscribers is a no-op, as in Redis.
func (s *Store) Publish(channel string, payload []byte) {
	s.ops.Add(1)
	msg := make([]byte, len(payload))
	copy(msg, payload)
	sh := s.shardFor(channel)
	sh.mu.Lock()
	subs := sh.subs[channel]
	// Copy the slice header so pushes happen outside the shard lock's
	// critical section w.r.t. slice mutation by unsubscribe.
	snapshot := make([]*Subscription, len(subs))
	copy(snapshot, subs)
	sh.mu.Unlock()
	for _, sub := range snapshot {
		sub.push(msg)
	}
}

// NumSubscribers reports the current subscriber count for channel.
func (s *Store) NumSubscribers(channel string) int {
	sh := s.shardFor(channel)
	sh.mu.Lock()
	n := len(sh.subs[channel])
	sh.mu.Unlock()
	return n
}

func (s *Store) unsubscribe(sub *Subscription) {
	sh := s.shardFor(sub.channel)
	sh.mu.Lock()
	list := sh.subs[sub.channel]
	for i, candidate := range list {
		if candidate == sub {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(sh.subs, sub.channel)
	} else {
		sh.subs[sub.channel] = list
	}
	sh.mu.Unlock()
}
