// Command crrouter is the multi-node front tier: it consistent-hashes
// instance fingerprints across several crserved backends so their memo
// caches partition the fingerprint space and the fleet behaves as one cache.
// Backends are health-checked and ejected after consecutive probe failures
// (re-admitted on recovery), batches are split by owner and re-merged in
// order, and a solve that lands on a non-owning backend is filled from the
// owner's warm cache instead of being re-solved.
//
// Usage:
//
//	crrouter -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	crrouter -addr :8090 -backends ... -vnodes 128 -probe-interval 500ms -fail-after 3
//
// Example session:
//
//	crgen -kind figure3 -n 12 > inst.json
//	curl -s localhost:8090/v1/solve -d "{\"instance\": $(cat inst.json)}"
//	curl -s localhost:8090/healthz | jq .backends
//	curl -s -XPOST "localhost:8090/admin/drain?backend=http://10.0.0.2:8080"
//	curl -s localhost:8090/metrics | grep crrouter
//
// See README.md for the flag table and ARCHITECTURE.md for the fleet-tier
// design (ring, ownership, forwarding, drain semantics).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crsharing"
	"crsharing/internal/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backendSpec := flag.String("backends", "", "comma-separated backend base URLs (required)")
	cfg := router.DefaultConfig()
	flag.IntVar(&cfg.VNodes, "vnodes", cfg.VNodes, "virtual nodes per backend on the hash ring")
	flag.DurationVar(&cfg.ProbeInterval, "probe-interval", cfg.ProbeInterval, "interval between backend /healthz probes")
	flag.IntVar(&cfg.FailAfter, "fail-after", cfg.FailAfter, "consecutive failures that eject a backend from the ring")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown budget")
	flag.Parse()

	for _, b := range strings.Split(*backendSpec, ",") {
		if b = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(b), "/")); b != "" {
			cfg.Backends = append(cfg.Backends, b)
		}
	}
	if len(cfg.Backends) == 0 {
		fmt.Fprintln(os.Stderr, "crrouter: -backends is required (comma-separated base URLs)")
		os.Exit(2)
	}

	cfg.Logf = log.Printf
	rt, err := router.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt.Start()
	defer rt.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("crrouter %s listening on %s (backends=%d vnodes=%d probe=%s fail-after=%d)",
		crsharing.Version, *addr, len(cfg.Backends), cfg.VNodes, cfg.ProbeInterval, cfg.FailAfter)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatal(err)
		}
	}
	log.Print("crrouter: shut down cleanly")
}
