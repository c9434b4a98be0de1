package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Membership keeps a cluster's remote member set in sync with its
// source of truth, a members file, without restarts. Reloads are
// diffs, not rebuilds: a new address joins via AddRemote, a vanished
// address drains gracefully (it takes no new requests; those in flight
// finish), and a weight change rescales that member's capacity share in
// place. Bystanders are never touched.

// MemberSpec is one entry in a members file: where the replica is and
// its capacity share (requests in flight per unit of weight are what
// the router balances).
type MemberSpec struct {
	Addr   string  `json:"addr"`
	Weight float64 `json:"weight,omitempty"` // 0 → 1
}

// membersFile is the on-disk format:
//
//	{"members": [{"addr": "10.0.0.5:8080", "weight": 2}, ...]}
type membersFile struct {
	Members []MemberSpec `json:"members"`
}

// ParseMembers decodes and validates a members-file payload. Weights
// default to 1; duplicate or malformed addresses are errors (a typo'd
// fleet definition should fail loudly at load time, not route oddly).
func ParseMembers(data []byte) ([]MemberSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f membersFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("cluster: members file: %w", err)
	}
	seen := make(map[string]bool, len(f.Members))
	for i := range f.Members {
		m := &f.Members[i]
		if err := validateMemberAddr(m.Addr); err != nil {
			return nil, err
		}
		if seen[m.Addr] {
			return nil, fmt.Errorf("cluster: members file lists %s twice", m.Addr)
		}
		seen[m.Addr] = true
		if m.Weight < 0 {
			return nil, fmt.Errorf("cluster: member %s weight %g must not be negative", m.Addr, m.Weight)
		}
		if m.Weight == 0 {
			m.Weight = 1
		}
	}
	return f.Members, nil
}

// MembershipConfig parameterizes a Membership manager.
type MembershipConfig struct {
	// Path is the members file. Required.
	Path string
	// PollInterval is how often Run reloads the file. Zero selects 1s.
	PollInterval time.Duration
}

// drainGrace bounds the graceful drain of a removed member before
// its connections are cut.
const drainGrace = 5 * time.Second

// ReloadSummary reports what one membership reload changed.
type ReloadSummary struct {
	Added      int `json:"added"`
	Removed    int `json:"removed"`
	Reweighted int `json:"reweighted"`
}

func (s ReloadSummary) changed() bool { return s.Added+s.Removed+s.Reweighted > 0 }

// Membership drives a cluster's remote member set from its members
// file. Goroutine-safe; Reload may be called directly (e.g. from a
// SIGHUP handler) while Run polls.
type Membership struct {
	c   *Cluster
	cfg MembershipConfig

	mu     sync.Mutex
	active map[string]int // addr → member id, as applied by this manager

	drains sync.WaitGroup
}

// NewMembership builds a manager for c. Existing remote members are
// unknown to it until a Reload lists them; local members are never
// touched.
func NewMembership(c *Cluster, cfg MembershipConfig) (*Membership, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("cluster: MembershipConfig.Path is required")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	return &Membership{c: c, cfg: cfg, active: make(map[string]int)}, nil
}

// Reload reads the members file and applies the diff against what this
// manager previously applied: joins first (capacity arrives before it
// is taken away), then reweights, then graceful drains of vanished
// members in the background.
func (ms *Membership) Reload() (ReloadSummary, error) {
	var sum ReloadSummary
	data, err := os.ReadFile(ms.cfg.Path)
	if err == nil {
		var specs []MemberSpec
		if specs, err = ParseMembers(data); err == nil {
			sum, err = ms.apply(specs)
		}
	}
	switch {
	case err != nil:
		mReloads.With("error").Inc()
	case sum.changed():
		mReloads.With("applied").Inc()
	default:
		mReloads.With("unchanged").Inc()
	}
	return sum, err
}

func (ms *Membership) apply(specs []MemberSpec) (ReloadSummary, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var sum ReloadSummary
	desired := make(map[string]float64, len(specs))
	for _, s := range specs {
		desired[s.Addr] = s.Weight
	}

	// Joins and reweights, in spec order: member ids follow the file,
	// so two balancers reading the same fleet definition number their
	// members identically and reload logs are reproducible.
	for _, s := range specs {
		addr, w := s.Addr, desired[s.Addr]
		if id, ok := ms.active[addr]; ok {
			if m := ms.c.memberByID(id); m != nil && m.getWeight() != w {
				if err := ms.c.ReweightMember(id, w); err != nil {
					return sum, err
				}
				sum.Reweighted++
			}
			continue
		}
		id, err := ms.c.AddRemote(addr, w)
		if err != nil {
			return sum, err
		}
		ms.active[addr] = id
		sum.Added++
	}

	// Drains, in the background so a slow member cannot stall the
	// reload (DrainMember takes the member out of the routing set at
	// once; only connection teardown is deferred).
	for addr, id := range ms.active {
		if _, ok := desired[addr]; ok {
			continue
		}
		delete(ms.active, addr)
		sum.Removed++
		ms.drains.Add(1)
		go func(id int) {
			defer ms.drains.Done()
			dctx, cancel := context.WithTimeout(context.Background(), drainGrace)
			defer cancel()
			_ = ms.c.DrainMember(dctx, id)
		}(id)
	}
	return sum, nil
}

// Run reloads the members file every PollInterval until stop closes,
// then waits for outstanding drains. Reload errors are counted
// (cluster_membership_reloads_total{outcome="error"}) and retried next
// tick — a file caught mid-edit or briefly unreadable must not empty
// the fleet; the last good member set keeps serving.
func (ms *Membership) Run(stop <-chan struct{}) {
	ms.c.every(ms.cfg.PollInterval, stop, func() { _, _ = ms.Reload() })
	ms.drains.Wait()
}
