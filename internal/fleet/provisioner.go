package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"harvest/internal/core"
)

// LocalProvisioner spawns in-process replicas over loopback HTTP
// (core.StartReplica), each with an Agent that self-registers against
// FleetURL and deregisters (drain-aware) on Stop. It lets `harvest-fleet
// -local` and `harvest-loadgen -fleet-max` autoscale a real serving
// tier with no external scheduler. Replicas are kept in launch order;
// Stop and Kill both take the most recently launched one.
type LocalProvisioner struct {
	// FleetURL is the control plane the spawned replicas register with.
	FleetURL string
	// Replica is the shape of every launched replica.
	Replica core.DeploymentConfig
	// TTL is the lease length replicas request (0 = registry default).
	TTL time.Duration
	// Logf, when non-nil, receives replica lifecycle messages.
	Logf func(format string, args ...any)

	mu   sync.Mutex
	seq  int
	reps []*localReplica // live replicas, launch order
}

type localReplica struct {
	name    string
	agent   *Agent
	replica *core.Replica
}

// errNoReplica is Stop's and Kill's answer when nothing is running.
var errNoReplica = errors.New("fleet: no local replica running")

// Launch starts one in-process replica and its registration agent and
// returns its base URL. The pool gains the replica as soon as its
// agent's registration lands (milliseconds later).
func (lp *LocalProvisioner) Launch() (string, error) {
	replica, err := core.StartReplica(lp.Replica)
	if err != nil {
		return "", fmt.Errorf("fleet: local launch: %w", err)
	}
	lp.mu.Lock()
	defer lp.mu.Unlock()
	name := fmt.Sprintf("local-%s-%d", lp.Replica.Platform, lp.seq)
	lp.seq++
	rep := &localReplica{
		name: name,
		agent: &Agent{
			FleetURL: lp.FleetURL,
			Name:     name,
			URL:      replica.URL,
			Platform: lp.Replica.Platform,
			TTL:      lp.TTL,
			Logf:     lp.Logf,
		},
		replica: replica,
	}
	// Started before it is listed, so a Stop or Kill that finds it
	// finds a running agent.
	rep.agent.Start()
	lp.reps = append(lp.reps, rep)
	return replica.URL, nil
}

// newest unlists and returns the most recently launched replica.
func (lp *LocalProvisioner) newest() (*localReplica, error) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if len(lp.reps) == 0 {
		return nil, errNoReplica
	}
	rep := lp.reps[len(lp.reps)-1]
	lp.reps = lp.reps[:len(lp.reps)-1]
	return rep, nil
}

// Stop retires the most recently launched replica: the agent
// deregisters with drain (the registry stops routing to it and waits
// out in-flight work), then the HTTP server shuts down gracefully and
// the deployment's batchers drain. Admitted requests never fail.
func (lp *LocalProvisioner) Stop() error {
	rep, err := lp.newest()
	if err != nil {
		return err
	}
	_ = rep.agent.Stop() // a failed deregistration leaves the lease to expire
	rep.replica.Close()
	return nil
}

// Kill tears the most recently launched replica down abruptly — no
// deregistration, no drain, connections reset — simulating a crash.
// The control plane only learns of it through failed probes and the
// lease's TTL expiry. Returns the replica's lease name.
func (lp *LocalProvisioner) Kill() (string, error) {
	rep, err := lp.newest()
	if err != nil {
		return "", err
	}
	rep.agent.Abort() // die without deregistering; the lease must expire
	_ = rep.agent.Stop()
	rep.replica.Kill()
	return rep.name, nil
}

// Close stops every remaining replica (drain-aware), newest first.
func (lp *LocalProvisioner) Close() {
	for lp.Stop() == nil {
	}
}
