// Package pprofserve starts the opt-in net/http/pprof debug listener
// the serving binaries expose behind -pprof-addr. The profiler gets
// its own mux and address — never the serving mux — so profiling
// endpoints are reachable only where the operator points them
// (typically localhost), not on the public serving port.
package pprofserve

import (
	"net/http"
	"net/http/pprof"

	"harvest/internal/serve"
)

// Listen serves pprof on addr until the process exits. Empty addr
// disables profiling.
func Listen(addr string) error {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	_, err := serve.Listen(addr, mux, 0)
	return err
}
