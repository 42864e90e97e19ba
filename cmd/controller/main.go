// Command controller runs the SDN controller: an OpenFlow listener for
// the switches and the REST API accepting the paper's update messages.
//
// Usage:
//
//	controller -topo fig1 -listen 127.0.0.1:6633 -http 127.0.0.1:8080
//
// Then connect a switch fleet (cmd/switchd) and drive updates
// (cmd/updatectl).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tsu/internal/controller"
	"tsu/internal/journal"
	"tsu/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "controller:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topoSpec  = flag.String("topo", "fig1", "topology spec (fig1, linear:N, ring:N, grid:RxC, reversal:N, staircase:N, nested:N)")
		listen    = flag.String("listen", "127.0.0.1:6633", "OpenFlow listen address")
		httpAddr  = flag.String("http", "127.0.0.1:8080", "REST API listen address")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		jpath     = flag.String("journal", "", "journal file for durable job state (crash-restart recovery); empty runs in-memory")
		verbose   = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	g, err := topo.FromSpec(*topoSpec)
	if err != nil {
		return err
	}
	cfg := controller.Config{Topology: g, Logger: logger}
	if *jpath != "" {
		jl, err := journal.Open(*jpath)
		if err != nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		defer jl.Close() //nolint:errcheck // shutdown path
		cfg.Journal = jl
	}
	ctrl, err := controller.New(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ofAddr, err := ctrl.Start(ctx, *listen)
	if err != nil {
		return err
	}
	fmt.Printf("controller: OpenFlow on %s, topology %s (%d switches)\n", ofAddr, *topoSpec, g.NumNodes())

	if cfg.Journal != nil {
		// Recovery runs once the fleet has (re)connected: mid-flight
		// jobs are reconciled against live switch state, so give the
		// switches a moment to dial back in before deciding anything.
		go func() {
			wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			if err := ctrl.WaitForSwitches(wctx, g.NumNodes()); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "controller: recovery proceeding without full fleet:", err)
			}
			cancel()
			stats, err := ctrl.Engine().Recover(ctx)
			if err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "controller: recovery:", err)
				return
			}
			if stats.Replayed > 0 {
				fmt.Printf("controller: journal replayed %d records: %d jobs terminal, %d requeued, %d adopted, %d rolled back, %d failed\n",
					stats.Replayed, stats.Terminal, stats.Requeued, stats.Adopted, stats.RolledBack, stats.Failed)
			}
		}()
	}

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated (usually loopback-only)
		// address: profiling never rides on the public REST listener.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: mux}
		go func() {
			<-ctx.Done()
			psrv.Close() //nolint:errcheck // shutdown path
		}()
		go func() {
			if err := psrv.ListenAndServe(); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "controller: pprof:", err)
			}
		}()
		fmt.Printf("controller: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	srv := &http.Server{Addr: *httpAddr, Handler: ctrl.RESTHandler()}
	go func() {
		<-ctx.Done()
		srv.Close() //nolint:errcheck // shutdown path
	}()
	fmt.Printf("controller: REST on http://%s (POST /v1/updates, GET /v1/updates/{id}/watch, POST /v1/verify, GET /v1/healthz)\n", *httpAddr)
	if err := srv.ListenAndServe(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
