// Command sramd serves the repo's characterization workloads as a
// daemon: submit Table II characterizations (charac), Monte-Carlo DRV
// studies (exp) and test-flow optimizations (testflow) as asynchronous
// jobs over a JSON HTTP API, poll their sweep progress, and fetch
// results that are byte-identical to the defectchar/drv/flow CLIs.
// Identical re-submissions are cache hits in a content-addressed result
// store that can persist across restarts. Batches of specs stream
// results back as NDJSON (POST /v1/batch).
//
// With -coordinator, sramd fronts a fleet of nodes instead of running
// jobs itself: canonical job-spec SHAs are consistent-hashed to owner
// nodes, hot shards are stolen from, dead nodes are failed over, and
// results replicate through a coordinator-local content-addressed
// store.
//
// Usage:
//
//	sramd                                  # listen on :8347, in-memory store
//	sramd -addr :9000 -jobs 4 -queue 64    # bigger pool and queue
//	sramd -store-dir /var/lib/sramd        # persist results across restarts
//	sramd -job-timeout 10m -workers 8      # cap job wall-clock, bound sweeps
//	sramd -coordinator -nodes http://a:8347,http://b:8347
//
// See the README's "Running the service" and "Running a cluster"
// sections for walkthroughs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sramtest/internal/cli"
	"sramtest/internal/cluster"
	"sramtest/internal/diag"
	"sramtest/internal/diag/index"
	"sramtest/internal/jobs"
	"sramtest/internal/server"
	"sramtest/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		jobWorkers = flag.Int("jobs", 1, "concurrent job executors (each job parallelizes internally on the sweep engine)")
		queue      = flag.Int("queue", 16, "bounded job queue depth")
		jobTimeout = flag.Duration("job-timeout", 30*time.Minute, "per-job wall-clock limit (0 = unlimited)")
		retries    = flag.Int("retries", 2, "extra attempts after transient job failures (0 = none)")
		storeDir   = flag.String("store-dir", "", "persist results to this directory (empty = memory only)")
		storeCap   = flag.Int("store-cap", 256, "max cached results before LRU eviction")
		drainWait  = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for running jobs")
		inflight   = flag.Int("batch-inflight", 0, "concurrent jobs per /v1/batch request (0 = default: 16 node, 32 coordinator)")

		coordinator = flag.Bool("coordinator", false, "run as cluster coordinator over -nodes instead of executing jobs")
		nodeList    = flag.String("nodes", "", "comma-separated node base URLs (coordinator mode)")
		stealAt     = flag.Int("steal-threshold", 8, "owner-shard depth above which work is stolen (coordinator mode)")
		poll        = flag.Duration("node-poll", 25*time.Millisecond, "remote job poll interval (coordinator mode)")

		diagDict = flag.String("diag-dict", "", "serve streaming diagnosis (POST /v1/diagnose) from this dictionary artifact (node mode; coordinator mode fans out to nodes)")

		simJob = flag.Duration("sim-job", 0, "load-harness fixture: replace the runners with a deterministic sleep of this length (results are NOT real characterizations)")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	flag.Parse()
	applyWorkers()

	// Fixture bytes share keys with real results; never let them reach a
	// store that outlives the process.
	if *simJob > 0 && *storeDir != "" {
		fmt.Fprintln(os.Stderr, "sramd: -sim-job with a persistent -store-dir would poison the real result cache; use a memory store")
		os.Exit(2)
	}

	st, err := store.Open(*storeDir, *storeCap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sramd:", err)
		os.Exit(1)
	}

	var handler http.Handler
	var mgr *jobs.Manager
	if *coordinator {
		nodes := splitNodes(*nodeList)
		if len(nodes) == 0 {
			fmt.Fprintln(os.Stderr, "sramd: -coordinator requires -nodes")
			os.Exit(2)
		}
		coord, err := cluster.New(cluster.Config{
			Nodes:          nodes,
			StealThreshold: *stealAt,
			MaxInflight:    *inflight,
			PollInterval:   *poll,
			Store:          st,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sramd:", err)
			os.Exit(2)
		}
		handler = coord
	} else {
		mr := *retries
		if mr <= 0 {
			mr = -1 // jobs.Config treats negative as "no retries" (0 means default)
		}
		cfg := jobs.Config{
			Workers:    *jobWorkers,
			QueueDepth: *queue,
			JobTimeout: *jobTimeout,
			MaxRetries: mr,
			Store:      st,
		}
		if *simJob > 0 {
			cfg.Run = jobs.FixtureRunner(*simJob)
		}
		mgr = jobs.NewManager(cfg)
		api := server.New(mgr, st)
		api.BatchInflight = *inflight
		if *diagDict != "" {
			d, err := diag.Load(*diagDict)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sramd: -diag-dict:", err)
				os.Exit(2)
			}
			ix, err := index.New(d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sramd: -diag-dict:", err)
				os.Exit(2)
			}
			ist := ix.Stats()
			api.Diag = ix
			api.DiagInfo = server.DiagInfo{
				Entries: ist.Entries, Flow: len(d.Flow), Indexed: true,
				Groups: ist.Groups, Buckets: ist.Buckets,
			}
			fmt.Fprintf(os.Stderr, "sramd: diagnosis dictionary %s: %d entries, %d signatures, %d buckets\n",
				*diagDict, ist.Entries, ist.Groups, ist.Buckets)
		}
		handler = api
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	mode := "node"
	if *coordinator {
		mode = fmt.Sprintf("coordinator over %s", *nodeList)
	}
	fmt.Fprintf(os.Stderr, "sramd: %s listening on %s (store: %s, cap %d)\n", mode, *addr, storeDesc(*storeDir), *storeCap)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "sramd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain running
	// jobs within the budget (they are canceled when it runs out).
	fmt.Fprintln(os.Stderr, "sramd: shutting down, draining jobs...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "sramd: shutdown:", err)
	}
	if mgr != nil {
		mgr.Drain(shutdownCtx)
	}
	fmt.Fprintln(os.Stderr, "sramd: bye")
}

func splitNodes(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
