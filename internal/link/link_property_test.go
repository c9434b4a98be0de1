package link

import (
	"fmt"
	"math/rand"
	"testing"

	"contention/internal/cpu"
	"contention/internal/des"
)

// Property: under random traffic, words are conserved (everything sent
// arrives), per-port delivery is FIFO, and wire busy time equals the
// sum of per-message wire times.
func TestLinkConservationProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Config{
			Name:      "ether",
			MTU:       1 + rng.Intn(2048),
			PerPacket: rng.Float64() * 1e-3,
			Bandwidth: 1e4 + rng.Float64()*1e6,
		}
		k := des.New()
		host := cpu.NewHost(k, "sun", 1)
		l, a, b := MustNew(k, cfg,
			EndpointConfig{Name: "a", Host: host, SendStartup: rng.Float64() * 1e-4, SendPerWord: rng.Float64() * 1e-6},
			NodeConfig{Name: "b"})

		nSenders := 1 + rng.Intn(4)
		perSender := 1 + rng.Intn(20)
		sentWords := 0
		expectedWire := 0.0
		type sent struct{ port string }
		var plan [][]int // per sender: message sizes
		for s := 0; s < nSenders; s++ {
			sizes := make([]int, perSender)
			for i := range sizes {
				sizes[i] = rng.Intn(3000)
				sentWords += sizes[i]
				expectedWire += l.WireTime(sizes[i])
			}
			plan = append(plan, sizes)
		}
		_ = sent{}

		received := map[string][]int{}
		for s := 0; s < nSenders; s++ {
			s := s
			port := fmt.Sprintf("p%d", s)
			b.Handle(port, func(msg Message) {
				received[port] = append(received[port], msg.Payload.(int))
			})
			k.Spawn("send"+port, func(p *des.Proc) {
				for i, words := range plan[s] {
					a.Send(p, port, port, words, i)
				}
			})
		}
		k.Run()

		if l.WordsMoved() != sentWords {
			t.Fatalf("trial %d: moved %d words, sent %d", trial, l.WordsMoved(), sentWords)
		}
		if l.Messages() != nSenders*perSender {
			t.Fatalf("trial %d: %d messages, want %d", trial, l.Messages(), nSenders*perSender)
		}
		if diff := l.BusyTime() - expectedWire; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: busy %v, want %v", trial, l.BusyTime(), expectedWire)
		}
		// FIFO per port: payload sequence numbers in order.
		for port, seq := range received {
			for i, v := range seq {
				if v != i {
					t.Fatalf("trial %d port %s: out-of-order delivery %v", trial, port, seq)
				}
			}
		}
	}
}

// Property: the simulation is deterministic — identical runs produce
// identical message timings.
func TestLinkDeterminismProperty(t *testing.T) {
	run := func() []float64 {
		k := des.New()
		host := cpu.NewHost(k, "sun", 1)
		_, a, b := MustNew(k, Config{Name: "e", MTU: 512, PerPacket: 1e-4, Bandwidth: 1e5},
			EndpointConfig{Name: "a", Host: host, SendStartup: 1e-4, SendPerWord: 1e-6},
			NodeConfig{Name: "b"})
		var arrivals []float64
		for s := 0; s < 3; s++ {
			port := fmt.Sprintf("p%d", s)
			b.Handle(port, func(msg Message) { arrivals = append(arrivals, msg.Arrived) })
			k.Spawn("s"+port, func(p *des.Proc) {
				for i := 0; i < 10; i++ {
					a.Send(p, port, port, 100*(s+1), nil)
				}
			})
		}
		k.Run()
		return arrivals
	}
	x, y := run(), run()
	if len(x) != len(y) || len(x) != 30 {
		t.Fatalf("lengths %d/%d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("nondeterminism at %d: %v vs %v", i, x[i], y[i])
		}
	}
}
