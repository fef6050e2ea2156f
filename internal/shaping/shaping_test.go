package shaping

import (
	"testing"
	"testing/quick"
	"time"
)

func TestShaperSerializationDelay(t *testing.T) {
	// 800 kbps = 100 kB/s: a 1000-byte message takes 10 ms.
	s := NewShaper(800_000, 1<<20)
	depart, ok := s.Enqueue(0, 1000)
	if !ok {
		t.Fatal("message dropped on empty queue")
	}
	if depart != 10*time.Millisecond {
		t.Fatalf("depart = %v, want 10ms", depart)
	}
}

func TestShaperBacklogAccumulates(t *testing.T) {
	s := NewShaper(800_000, 1<<20)
	var last time.Duration
	for i := 0; i < 5; i++ {
		d, ok := s.Enqueue(0, 1000)
		if !ok {
			t.Fatalf("message %d dropped", i)
		}
		if want := last + 10*time.Millisecond; d != want {
			t.Fatalf("message %d departs at %v, want %v", i, d, want)
		}
		last = d
	}
	if got := s.Backlog(0); got != 50*time.Millisecond {
		t.Fatalf("Backlog(0) = %v, want 50ms", got)
	}
}

func TestShaperDrainsOverTime(t *testing.T) {
	s := NewShaper(800_000, 1<<20)
	s.Enqueue(0, 1000) // busy until 10ms
	// At t=10ms the link is idle again; a new message departs at 20ms.
	d, ok := s.Enqueue(10*time.Millisecond, 1000)
	if !ok || d != 20*time.Millisecond {
		t.Fatalf("depart = %v ok=%v, want 20ms true", d, ok)
	}
	// Long idle gap: no credit accumulates (this is a shaper, not a bucket).
	d, _ = s.Enqueue(time.Second, 1000)
	if d != time.Second+10*time.Millisecond {
		t.Fatalf("depart after idle = %v, want 1.01s", d)
	}
}

func TestShaperDropTail(t *testing.T) {
	// Queue bound of 2500 bytes: the first message serializes immediately,
	// then backlog builds; once queued bytes would exceed 2500 the message
	// is dropped.
	s := NewShaper(800_000, 2500)
	accepted := 0
	for i := 0; i < 10; i++ {
		if _, ok := s.Enqueue(0, 1000); ok {
			accepted++
		}
	}
	// First message: backlog 0, accepted (serializing). Second: backlog
	// 1000, 1000+1000 <= 2500, accepted. Third: backlog 2000,
	// 2000+1000 > 2500, dropped — and so on. Accepted = 2.
	if accepted != 2 {
		t.Fatalf("accepted %d messages, want 2", accepted)
	}
}

func TestShaperRecoversAfterDrop(t *testing.T) {
	s := NewShaper(800_000, 1500)
	s.Enqueue(0, 1000)
	s.Enqueue(0, 1000)
	if _, ok := s.Enqueue(0, 1000); ok {
		t.Fatal("third immediate message should be dropped")
	}
	// After the backlog drains, sends succeed again.
	if _, ok := s.Enqueue(time.Second, 1000); !ok {
		t.Fatal("message dropped after queue drained")
	}
}

func TestShaperUnlimited(t *testing.T) {
	var s Shaper // zero value = unlimited
	for i := 0; i < 100; i++ {
		d, ok := s.Enqueue(5*time.Second, 1<<20)
		if !ok || d != 5*time.Second {
			t.Fatalf("unlimited link delayed or dropped: %v %v", d, ok)
		}
	}
	if s.Backlog(0) != 0 {
		t.Fatal("unlimited link reported backlog")
	}
}

func TestShaperZeroSizeMessage(t *testing.T) {
	s := NewShaper(800_000, 1000)
	d, ok := s.Enqueue(0, 0)
	if !ok || d != 0 {
		t.Fatalf("zero-size message: depart=%v ok=%v", d, ok)
	}
}

func TestShaperNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	NewShaper(1000, 1000).Enqueue(0, -1)
}

func TestNewShaperNegativeRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	NewShaper(-1, 0)
}

// Property: departure times are nondecreasing and spaced at least by the
// serialization time of the accepted message.
func TestShaperMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16, gapsMS []uint8) bool {
		s := NewShaper(700_000, 64*1024)
		now := time.Duration(0)
		lastDepart := time.Duration(-1)
		for i, sz := range sizes {
			if i < len(gapsMS) {
				now += time.Duration(gapsMS[i]) * time.Millisecond
			}
			d, ok := s.Enqueue(now, int(sz))
			if !ok {
				continue
			}
			if d < now || d < lastDepart {
				return false
			}
			lastDepart = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregate accepted throughput never exceeds the configured rate
// (measured from first enqueue to last departure).
func TestShaperRateCapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		const rate = 500_000
		s := NewShaper(rate, 1<<20)
		var acceptedBits int64
		var lastDepart time.Duration
		for _, sz := range sizes {
			d, ok := s.Enqueue(0, int(sz))
			if ok {
				acceptedBits += int64(sz) * 8
				lastDepart = d
			}
		}
		if lastDepart == 0 {
			return true
		}
		achieved := float64(acceptedBits) / lastDepart.Seconds()
		return achieved <= rate*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultQueueBytesHoldsTheModelsBacklog: the default bound is the
// paper's testbed uplink, about 1.5 s of backlog at a 700 kbps cap. A
// burst at one instant queues until the next message would overflow it.
func TestDefaultQueueBytesHoldsTheModelsBacklog(t *testing.T) {
	s := NewShaper(700_000, DefaultQueueBytes)
	accepted := 0
	for {
		if _, ok := s.Enqueue(0, 1000); !ok {
			break
		}
		accepted++
	}
	if b := s.Backlog(0); b < 1450*time.Millisecond || b > 1550*time.Millisecond {
		t.Fatalf("backlog %v when the queue drops, want about 1.5s", b)
	}
	// A message is admitted while the backlog ahead of it plus itself fits.
	if want := int(DefaultQueueBytes) / 1000; accepted != want {
		t.Fatalf("accepted %d 1000-byte messages, want %d", accepted, want)
	}
}
