package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// run drives the engine and fails the test on error.
func run(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSignalAwaitAndFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke [2]time.Duration
	for i := range woke {
		var task *Task
		task = e.Spawn("waiter", func() {
			s.OnFire(func() {
				woke[i] = e.Now()
				task.End()
			})
		})
	}
	e.Schedule(3*time.Second, s.Fire)
	run(t, e)
	for i, w := range woke {
		if w != 3*time.Second {
			t.Errorf("waiter %d woke at %v, want 3s", i, w)
		}
	}
	if !s.Fired() {
		t.Error("signal not marked fired")
	}
}

// TestSignalWakeOrder pins that waiters wake in registration order for
// one, two and three waiters (the inline first slot, then the overflow
// list), also when a re-armed signal reuses its waiter storage.
func TestSignalWakeOrder(t *testing.T) {
	for n := 1; n <= 3; n++ {
		e := NewEngine()
		s := NewSignal(e)
		for round := 0; round < 2; round++ {
			var woke []int
			for i := 0; i < n; i++ {
				s.OnFire(func() { woke = append(woke, i) })
			}
			e.Schedule(time.Second, s.Fire)
			run(t, e)
			if want := fmt.Sprint([]int{0, 1, 2}[:n]); fmt.Sprint(woke) != want {
				t.Errorf("%d waiters, round %d: woke %v, want %v", n, round, woke, want)
			}
			s.Rearm()
		}
	}
}

func TestAwaitAlreadyFired(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	s.Fire()
	s.Fire() // double fire is a no-op
	var woke time.Duration = -1
	e.Schedule(time.Second, func() {
		s.OnFire(func() { woke = e.Now() }) // must run synchronously
		if woke != time.Second {
			t.Error("OnFire on a fired signal did not run synchronously")
		}
	})
	run(t, e)
	if woke != time.Second {
		t.Errorf("late waiter woke at %v, want 1s", woke)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	e.Spawn("stuck", func() {
		s.OnFire(func() {}) // never fired
	})
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("Run = %v, want ErrDeadlock", err)
	}
}

// holder spawns a task that acquires r, holds it for d, releases it, and
// reports the instants it acquired and released.
func holder(e *Engine, r *Resource, d time.Duration, acquired, released *[]time.Duration) {
	var task *Task
	task = e.Spawn("holder", func() {
		r.AcquireFunc(func() {
			*acquired = append(*acquired, e.Now())
			task.After(d, func() {
				r.Release()
				*released = append(*released, e.Now())
				task.End()
			})
		})
	})
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var holds, released []time.Duration
	for i := 0; i < 3; i++ {
		holder(e, r, time.Second, &holds, &released)
	}
	run(t, e)
	want := []time.Duration{0, time.Second, 2 * time.Second}
	if fmt.Sprint(holds) != fmt.Sprint(want) {
		t.Fatalf("holds = %v, want %v (serialized FIFO hand-off)", holds, want)
	}
	if r.InUse() != 0 {
		t.Errorf("InUse = %d after all released", r.InUse())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var holds, done []time.Duration
	for i := 0; i < 4; i++ {
		holder(e, r, time.Second, &holds, &done)
	}
	peak := 0
	e.Schedule(time.Second/2, func() { peak = r.InUse() })
	run(t, e)
	if peak != 2 {
		t.Errorf("InUse mid-hold = %d, want 2 units held at once", peak)
	}
	// Two run in [0,1), two in [1,2).
	want := []time.Duration{time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	if fmt.Sprint(done) != fmt.Sprint(want) {
		t.Fatalf("done = %v, want %v", done, want)
	}
	if r.InUse() != 0 {
		t.Errorf("InUse = %d after all released", r.InUse())
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	r := NewResource(NewEngine(), 1)
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	r.Release()
}

// drain spawns a task that takes items from q until it is closed and
// drained, waiting pause after each one.
func drain(e *Engine, q *Queue[int], pause time.Duration, got func(v int)) *Task {
	var task *Task
	var next func()
	onItem := func(v int, ok bool) {
		if !ok {
			task.End()
			return
		}
		got(v)
		task.After(pause, next)
	}
	next = func() { q.GetFunc(onItem) }
	task = e.Spawn("consumer", next)
	return task
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	drain(e, q, 0, func(v int) { got = append(got, v) })
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Duration(i+1)*time.Second, func() { q.Put(i) })
	}
	e.Schedule(6*time.Second, q.Close)
	run(t, e)
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("got %v, want FIFO order", got)
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	total := 0
	for i := 0; i < 3; i++ {
		drain(e, q, time.Second, func(v int) { total += v })
	}
	e.Schedule(0, func() {
		for i := 1; i <= 9; i++ {
			q.Put(i)
		}
		q.Close()
	})
	run(t, e)
	if total != 45 {
		t.Errorf("total = %d, want 45", total)
	}
}

func TestQueueWaitingGettersServedInArrivalOrder(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var served []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprint("getter", i)
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			q.GetFunc(func(v int, ok bool) {
				served = append(served, fmt.Sprintf("%s=%d", name, v))
			})
		})
	}
	e.Schedule(time.Second, func() {
		for i := 10; i < 13; i++ {
			q.Put(i)
		}
	})
	run(t, e)
	if got := fmt.Sprint(served); got != "[getter0=10 getter1=11 getter2=12]" {
		t.Errorf("served = %s, want getters in arrival order", got)
	}
}

func TestQueueCloseThenDrain(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Put(1)
	q.Put(2)
	q.Close()
	q.Close() // closing twice is a no-op
	var got []string
	for i := 0; i < 3; i++ {
		q.GetFunc(func(v int, ok bool) { got = append(got, fmt.Sprint(v, ok)) })
	}
	if fmt.Sprint(got) != "[1 true 2 true 0 false]" {
		t.Errorf("drain after close = %v, want buffered items then ok=false", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Put on a closed queue did not panic")
		}
	}()
	q.Put(3)
}

func TestQueueCloseUnblocksGetters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var ended []time.Duration
	for i := 0; i < 2; i++ {
		task := drain(e, q, 0, func(int) { t.Error("closed empty queue delivered an item") })
		task.Completion().OnFire(func() { ended = append(ended, e.Now()) })
	}
	e.Schedule(time.Second, q.Close)
	run(t, e) // a getter left waiting would make this a deadlock
	if fmt.Sprint(ended) != "[1s 1s]" {
		t.Errorf("getters released at %v, want both at 1s", ended)
	}
}
