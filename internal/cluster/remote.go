package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// RemoteReplica is a prediction backend on another host: the cluster
// does not own its process, only its address. It joins and leaves the
// fleet through AddRemote / DrainMember / members-file reloads, the
// health loop probes it like any member, its liveness is judged by the
// deadline those probes reset rather than by a babysitter, and
// requests reach it over the router's frame link to it, each carrying
// its remaining budget.
type RemoteReplica struct {
	addr string
	done chan struct{}
	once sync.Once
}

func newRemoteReplica(addr string) *RemoteReplica {
	return &RemoteReplica{addr: addr, done: make(chan struct{})}
}

// Addr implements Replica.
func (r *RemoteReplica) Addr() string { return r.addr }

// Done implements Replica. A remote replica has no process to exit; the
// channel closes only when the member is drained out of the fleet.
func (r *RemoteReplica) Done() <-chan struct{} { return r.done }

// Close implements Replica: the cluster stops using the address. The
// remote daemon itself is not contacted — its lifecycle belongs to
// whoever runs that host.
func (r *RemoteReplica) Close(ctx context.Context) error {
	r.once.Do(func() { close(r.done) })
	return nil
}

// Kill implements Replica: same as Close for a process we do not own.
func (r *RemoteReplica) Kill() {
	r.once.Do(func() { close(r.done) })
}

// ErrClientGone marks an attempt that died because the requesting
// client canceled or disconnected mid-request. It is neither retried
// (nobody is waiting) nor held against the replica's breaker (the
// replica did nothing wrong).
var ErrClientGone = errors.New("cluster: client disconnected mid-request")

// StatusClientClosedRequest is the nginx-convention status for a
// request whose client went away before the answer (nobody reads the
// response; the status exists for logs and outcome metrics).
const StatusClientClosedRequest = 499

// validateMemberAddr checks a remote member address is a usable
// host:port.
func validateMemberAddr(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("cluster: member addr %q: %w", addr, err)
	}
	if host == "" || port == "" || port == "0" {
		return fmt.Errorf("cluster: member addr %q needs an explicit host and port", addr)
	}
	return nil
}
