package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"contention/internal/core"
	"contention/internal/runner"
)

// slotLedger is a Server.slotHook that tracks every parked-request slot
// out of the pool: handing out a slot that is already out, recycling
// one that is not, and a slot still out after Close are all failures.
type slotLedger struct {
	mu       sync.Mutex
	out      map[*pendingReq]bool
	gets     int
	problems []string
}

func newSlotLedger() *slotLedger { return &slotLedger{out: map[*pendingReq]bool{}} }

func (l *slotLedger) hook(r *pendingReq, get bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case get && l.out[r]:
		l.problems = append(l.problems, fmt.Sprintf("slot %p handed out while still in use", r))
	case get:
		l.out[r] = true
		l.gets++
	case !l.out[r]:
		l.problems = append(l.problems, fmt.Sprintf("slot %p recycled twice", r))
	default:
		delete(l.out, r)
	}
}

// verify fails t on any misuse the ledger saw, or on a slot never given
// back. Call it after the server is closed.
func (l *slotLedger) verify(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) > 0 {
		t.Fatalf("%d slot misuses; first: %s", len(l.problems), l.problems[0])
	}
	if len(l.out) > 0 {
		t.Fatalf("%d of %d parked-request slots never went back to the pool", len(l.out), l.gets)
	}
}

// TestNoCrossTalkUnderAbandonment drives a comm and comp corpus through
// the batched path with many groups per window, a pool fanning the
// flush out, and per-request deadlines drawn around the window — some
// expire while parked, some just as the answer is sent. Every 200 must
// carry its own query's answer, bit for bit serve.Direct's, and every
// 504 must be ErrDeadline: a slot recycled while its waiter or its
// flush still holds it would hand one request another's answer. The
// slot ledger fails a leaked or doubly recycled slot.
func TestNoCrossTalkUnderAbandonment(t *testing.T) {
	const (
		nReqs       = 3000
		concurrency = 32
		window      = time.Millisecond
	)
	reference := newTestPredictor(t)
	s, err := newServer(Config{
		Pred:   newTestPredictor(t),
		Pool:   runner.New(4),
		Window: window,
	}, tunedWith(func(tun *tuning) { tun.maxBatch = 8 })) // some groups also flush early
	if err != nil {
		t.Fatal(err)
	}
	ledger := newSlotLedger()
	s.slotHook = ledger.hook
	h := s.Handler()

	rng := rand.New(rand.NewSource(17))
	mixes := newCorpus(rng, 24)
	type item struct {
		body     string
		budget   time.Duration // the request context's deadline
		headerMs int           // X-Request-Deadline-Ms, 0 when unset
	}
	items := make([]item, nReqs)
	for i := range items {
		items[i] = item{
			body:   randomRequest(rng, mixes).body,
			budget: time.Duration(rng.Int63n(int64(3 * window))),
		}
		if rng.Intn(4) == 0 {
			items[i].headerMs = 1 + rng.Intn(2)
		}
	}

	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		ok, timedOut int
		failures     []string
		work         = make(chan int)
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				it := items[i]
				ctx, cancel := context.WithTimeout(context.Background(), it.budget)
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(it.body)).WithContext(ctx)
				req.Header.Set("Content-Type", "application/json")
				if it.headerMs > 0 {
					req.Header.Set(DeadlineHeader, strconv.Itoa(it.headerMs))
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				cancel()
				switch rec.Code {
				case http.StatusOK:
					var got Response
					if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
						fail("request %d: decode %v", i, err)
						continue
					}
					q, err := DecodeRequest(strings.NewReader(it.body))
					if err != nil {
						fail("request %d: %v", i, err)
						continue
					}
					want, err := Direct(reference, q, false)
					if err != nil {
						fail("request %d direct: %v", i, err)
						continue
					}
					if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
						fail("request %d: served %v, direct %v\n  body %s", i, got.Value, want.Value, it.body)
						continue
					}
					mu.Lock()
					ok++
					mu.Unlock()
				case http.StatusGatewayTimeout:
					var env ErrorBody
					if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil ||
						!strings.HasPrefix(env.Error, ErrDeadline.Error()+": ") {
						fail("request %d: 504 with %q (%v), want ErrDeadline", i, rec.Body.Bytes(), err)
						continue
					}
					mu.Lock()
					timedOut++
					mu.Unlock()
				default:
					fail("request %d: status %d %s", i, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
				}
			}
		}()
	}
	for i := range items {
		work <- i
	}
	close(work)
	wg.Wait()
	s.Close()

	if len(failures) > 0 {
		t.Fatalf("%d of %d requests failed; first: %s", len(failures), nReqs, failures[0])
	}
	ledger.verify(t)
	t.Logf("%d answered bit for bit, %d timed out", ok, timedOut)
	if ok == 0 || timedOut == 0 {
		t.Fatalf("%d answered, %d timed out: the deadlines no longer straddle the window", ok, timedOut)
	}
}

// TestMaxBatchFlushesOnlyTheFullGroup: a group that reaches maxBatch
// flushes alone, at once; every other parked group keeps waiting for
// its window (here: for Close).
func TestMaxBatchFlushesOnlyTheFullGroup(t *testing.T) {
	s, err := newServer(Config{Pred: newTestPredictor(t), Window: time.Hour},
		tunedWith(func(tun *tuning) { tun.maxBatch = 3 }))
	if err != nil {
		t.Fatal(err)
	}
	ledger := newSlotLedger()
	s.slotHook = ledger.hook
	type result struct {
		resp Response
		err  error
	}
	ask := func(cs []core.Contender, dcomp float64) <-chan result {
		ch := make(chan result, 1)
		go func() {
			resp, err := s.Predict(context.Background(), query{kind: "comp", dcomp: dcomp, cs: cs})
			ch <- result{resp, err}
		}()
		return ch
	}
	waitParked := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			parked := s.pendingN
			s.mu.Unlock()
			if parked == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d requests parked, want %d", parked, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	lone := ask([]core.Contender{{CommFraction: 0.2, MsgWords: 100}}, 1)
	waitParked(1)
	full := []core.Contender{{CommFraction: 0.5, MsgWords: 700}}
	var peers []<-chan result
	for i := 0; i < 3; i++ {
		peers = append(peers, ask(full, float64(i+1)))
	}
	for i, ch := range peers {
		select {
		case r := <-ch:
			if r.err != nil || r.resp.Batch != 3 {
				t.Fatalf("full-group request %d: %+v, %v; want a batch of 3", i, r.resp, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("full-group request %d was not flushed at maxBatch", i)
		}
	}
	waitParked(1)
	select {
	case r := <-lone:
		t.Fatalf("the other group flushed with the full one: %+v, %v", r.resp, r.err)
	default:
	}
	s.Close()
	if r := <-lone; r.err != nil || r.resp.Batch != 1 {
		t.Fatalf("lone request after Close: %+v, %v; want a batch of 1", r.resp, r.err)
	}
	ledger.verify(t)
}

// TestBatchKeyCollisionKeepsGroupsApart: two keys whose hashes collide
// share an index bucket, never a group — a shared group would price
// both mixes with one DP. Detaching one leaves the other findable.
func TestBatchKeyCollisionKeepsGroupsApart(t *testing.T) {
	s, err := New(Config{Pred: newTestPredictor(t), Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const h = 42 // one hash for both keys
	keyA, keyB := []byte("key-a"), []byte("key-b")
	s.mu.Lock()
	defer s.mu.Unlock()
	a, b := s.groupLocked(h, keyA), s.groupLocked(h, keyB)
	if a == b {
		t.Fatal("colliding keys share a group")
	}
	if s.groupLocked(h, keyA) != a || s.groupLocked(h, keyB) != b {
		t.Fatal("a colliding key does not find its own group again")
	}
	f := s.detachLocked(h, b)
	if len(f.gs) != 1 || f.gs[0] != b {
		t.Fatalf("detached %d groups, want b alone", len(f.gs))
	}
	if s.groupLocked(h, keyA) != a || len(s.groups) != 1 {
		t.Fatalf("after detaching b: a lost or %d groups open, want 1", len(s.groups))
	}
	s.flushing.Done() // f is never run
}
