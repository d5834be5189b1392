package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"harvest/internal/core"
)

// Provisioner launches and stops replicas on the autoscaler's behalf.
// Real deployments plug in an implementation that talks to their
// scheduler (k8s, slurm, a VM API); LocalProvisioner spawns in-process
// replicas for benchmarks and self-hosted runs.
type Provisioner interface {
	// Launch starts one replica of the platform. The replica is
	// responsible for registering itself with the control plane (the
	// Agent protocol); Launch returns its base URL once it is starting.
	Launch(ctx context.Context, platform string) (url string, err error)
	// Stop retires the replica previously launched at url: deregister
	// with drain, then tear it down.
	Stop(ctx context.Context, url string) error
}

// LocalProvisioner spawns in-process replicas over loopback HTTP
// (core.StartReplica), each with an Agent that self-registers against
// FleetURL and deregisters (drain-aware) on Stop. It lets `harvest-fleet
// -local` and `make bench-fleet` autoscale a real serving tier with no
// external scheduler.
type LocalProvisioner struct {
	// FleetURL is the control plane the spawned replicas register with.
	FleetURL string
	// Replica is the shape of every launched replica; Launch sets its
	// Platform.
	Replica core.DeploymentConfig
	// TTL is the lease length replicas request (0 = registry default).
	TTL time.Duration
	// Logf, when non-nil, receives replica lifecycle messages.
	Logf func(format string, args ...any)

	mu   sync.Mutex
	seq  int
	reps map[string]*localReplica
}

type localReplica struct {
	name    string
	agent   *Agent
	replica *core.Replica
}

// Launch starts one in-process replica and its registration agent.
// The pool gains the replica as soon as its agent's registration
// lands (milliseconds later).
func (lp *LocalProvisioner) Launch(_ context.Context, platform string) (string, error) {
	cfg := lp.Replica
	cfg.Platform = platform
	replica, err := core.StartReplica(cfg)
	if err != nil {
		return "", fmt.Errorf("fleet: local launch: %w", err)
	}
	url := replica.URL

	lp.mu.Lock()
	name := fmt.Sprintf("local-%s-%d", platform, lp.seq)
	lp.seq++
	if lp.reps == nil {
		lp.reps = map[string]*localReplica{}
	}
	rep := &localReplica{
		name: name,
		agent: &Agent{
			FleetURL: lp.FleetURL,
			Name:     name,
			URL:      url,
			Platform: platform,
			TTL:      lp.TTL,
			Logf:     lp.Logf,
		},
		replica: replica,
	}
	// Started before it is listed, so a Stop or Kill that finds it
	// finds a running agent.
	rep.agent.Start()
	lp.reps[url] = rep
	lp.mu.Unlock()
	return url, nil
}

// Stop retires the replica at url: the agent deregisters with drain
// (the registry stops routing to it and waits out in-flight work),
// then the HTTP server shuts down gracefully and the deployment's
// batchers drain. Admitted requests never fail.
func (lp *LocalProvisioner) Stop(_ context.Context, url string) error {
	lp.mu.Lock()
	rep, ok := lp.reps[url]
	if ok {
		delete(lp.reps, url)
	}
	lp.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: no local replica at %s", url)
	}
	_ = rep.agent.Stop() // a failed deregistration leaves the lease to expire
	rep.replica.Close()
	return nil
}

// Kill tears the replica at url down abruptly — no deregistration, no
// drain, connections reset — simulating a crash. The control plane
// only learns of it through failed probes and the lease's TTL expiry.
// Returns the replica's lease name.
func (lp *LocalProvisioner) Kill(url string) (string, error) {
	lp.mu.Lock()
	rep, ok := lp.reps[url]
	if ok {
		delete(lp.reps, url)
	}
	lp.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("fleet: no local replica at %s", url)
	}
	rep.agent.Abort() // die without deregistering; the lease must expire
	_ = rep.agent.Stop()
	rep.replica.Kill()
	return rep.name, nil
}

// URLs lists the replicas currently owned by the provisioner.
func (lp *LocalProvisioner) URLs() []string {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	out := make([]string, 0, len(lp.reps))
	for url := range lp.reps {
		out = append(out, url)
	}
	return out
}

// Close stops every remaining replica (drain-aware).
func (lp *LocalProvisioner) Close() {
	for _, url := range lp.URLs() {
		_ = lp.Stop(context.Background(), url)
	}
}
