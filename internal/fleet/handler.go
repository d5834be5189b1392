package fleet

import (
	"encoding/json"
	"net/http"
	"time"

	"harvest/internal/serve"
)

// RegisterRequestJSON is the body of POST /v2/fleet/register — one
// registration or renewal (the protocol does not distinguish; a known
// name renews).
type RegisterRequestJSON struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Platform string `json:"platform,omitempty"`
	// TTLMs is the requested lease length; 0 asks for the registry
	// default. The response carries the granted (clamped) value.
	TTLMs float64 `json:"ttl_ms,omitempty"`
}

// RegisterResponseJSON acknowledges a registration with the granted
// lease.
type RegisterResponseJSON struct {
	Name    string    `json:"name"`
	TTLMs   float64   `json:"ttl_ms"`
	Expires time.Time `json:"expires"`
}

// DeregisterRequestJSON is the body of POST /v2/fleet/deregister.
type DeregisterRequestJSON struct {
	Name string `json:"name"`
	// Drain requests a drain-aware removal: stop new picks, wait for
	// in-flight work, then leave the pool.
	Drain bool `json:"drain,omitempty"`
}

// StatusJSON is the response of GET /v2/fleet/status: current leases,
// recent membership events, and — when an autoscaler runs — its
// decision log.
type StatusJSON struct {
	Leases    []Lease    `json:"leases"`
	Events    []Event    `json:"events,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// Handler serves the fleet control-plane API over a registry and
// optional controller, delegating everything else to next (typically
// the router's data-plane handler, so one listener serves both).
//
//	POST /v2/fleet/register    — register or renew a lease
//	POST /v2/fleet/deregister  — retire a replica (drain-aware optional)
//	GET  /v2/fleet/status      — leases, events, autoscaler decisions
func Handler(g *Registry, c *Controller, next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequestJSON
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad register body: "+err.Error())
			return
		}
		l, err := g.Register(req.Name, req.URL, req.Platform, serve.MsDuration(req.TTLMs))
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, RegisterResponseJSON{Name: l.Name, TTLMs: l.TTLMs, Expires: l.Expires})
	})
	mux.HandleFunc("POST /v2/fleet/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req DeregisterRequestJSON
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad deregister body: "+err.Error())
			return
		}
		if err := g.Deregister(req.Name, req.Drain); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v2/fleet/status", func(w http.ResponseWriter, r *http.Request) {
		st := StatusJSON{Leases: g.Leases(), Events: g.Events()}
		if c != nil {
			st.Decisions = c.Decisions()
		}
		writeJSON(w, http.StatusOK, st)
	})
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}
