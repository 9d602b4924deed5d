// Command pnnserve runs a standing probabilistic nearest-neighbor query
// service: it builds the database at startup — from a dataset file
// written by pnndata, or from a synthetic/taxi generator — and then
// answers P∀NN, P∃NN and PCNN queries over HTTP/JSON until stopped.
// Live ingestion is on by default (disable with -ingest=false): new
// objects and fresh observations are folded into versioned engine
// snapshots without ever blocking readers.
//
// Usage:
//
//	pnnserve -data taxi.pnn -addr :8080
//	pnnserve -dataset synthetic -states 10000 -objects 1000 -addr :8080
//
//	curl localhost:8080/healthz
//	curl -d '{"state": 17, "ts": 500, "te": 509, "tau": 0.1, "seed": 7}' \
//	    localhost:8080/v1/forallnn
//	curl -d '{"id": 1001, "observations": [{"t": 500, "state": 17}]}' \
//	    localhost:8080/v1/objects
//	curl -d '{"id": 1001, "observations": [{"t": 510, "state": 23}]}' \
//	    localhost:8080/v1/observe
//	curl -N -d '{"semantics": "exists", "query": {"state": 17},
//	             "window": {"ts": 500, "te": 509}, "tau": 0.1}' \
//	    localhost:8080/v1/subscribe
//
// # Durability
//
// With -data-dir the node journals every acknowledged write to a
// per-shard write-ahead log and periodically spills columnar snapshots;
// on restart it rebuilds the exact pre-crash snapshot — version vector
// included — from the newest spill plus the WAL tail, before it starts
// listening. -fsync=false trades crash durability for write throughput;
// -spill-interval bounds how much WAL a restart must replay.
//
//	pnnserve -data taxi.pnn -data-dir /var/lib/pnn -addr :8080
//
// The router is stateless and refuses -data-dir.
//
// # Cluster mode
//
// The same binary runs a multi-node deployment: shard peers each own a
// consistent-hash slice of the objects and serve an /internal RPC
// surface, and a router scatters query work to all peers, gathering
// merged answers byte-identical to a single-process server over the
// same objects at the same snapshot versions and seed.
//
//	pnnserve -role peer -peer-name a -peers a=http://h1:9001,b=http://h2:9002 -addr :9001 ...
//	pnnserve -role peer -peer-name b -peers a=http://h1:9001,b=http://h2:9002 -addr :9002 ...
//	pnnserve -role router -peers a=http://h1:9001,b=http://h2:9002 -addr :8080 ...
//
// Every node of one cluster must load the same dataset (peers retain
// only the objects they own before indexing) and the router's -peers
// list must be identical across restarts: it fixes both the ring and
// the order of the version vector responses carry.
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pnn"
	"pnn/internal/cluster"
	"pnn/internal/ring"
	"pnn/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		data     = flag.String("data", "", "dataset file written by pnndata (overrides -dataset)")
		dataset  = flag.String("dataset", "synthetic", "generator when -data is unset: synthetic | taxi")
		states   = flag.Int("states", 10000, "generator: number of network states")
		objects  = flag.Int("objects", 1000, "generator: number of uncertain objects")
		lifetime = flag.Int("lifetime", 100, "generator: object lifetime in tics")
		horizon  = flag.Int("horizon", 1000, "generator: database time horizon")
		obsEvery = flag.Int("obs", 10, "generator: tics between observations")
		seed     = flag.Int64("seed", 1, "generator: random seed")
		samples  = flag.Int("samples", 10000, "sampled worlds per query")
		shards   = flag.Int("shards", 1, "index partitions: queries scatter-gather across all, writes touch one")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "batch worker pool size")
		qpar     = flag.Int("query-parallel", 0, "sampling goroutines per query (0: GOMAXPROCS/workers, so a full batch saturates the host without oversubscribing it)")
		warm     = flag.Bool("warm", false, "adapt all object models before accepting traffic")
		ingest   = flag.Bool("ingest", true, "enable live ingestion (/v1/objects, /v1/observe)")
		share    = flag.Bool("share-batch", false, "coalesce compatible /v1/batch requests into shared-world groups by default (per-request share_worlds overrides)")
		capSamp  = flag.Int("max-samples-cap", 0, "largest confidence.max_samples a request may ask for (0: 10x -samples)")
		maxSubs  = flag.Int("max-subs", 0, "most concurrently registered standing queries (/v1/subscribe; 0: 10000)")
		sweepIv  = flag.Duration("sweep-interval", pnn.DefaultSweepInterval, "bounded delay before a batched subscription invalidation sweep drains accumulated dirty standing queries (0: sweep immediately per write)")
		lenient  = flag.Bool("lenient", false, "drop objects with contradicting observations instead of failing")
		dataDir  = flag.String("data-dir", "", "durable state directory: write-ahead log + snapshot spills, recovered on restart (empty: volatile, in-memory only)")
		fsync    = flag.Bool("fsync", true, "with -data-dir: fsync the WAL on every acknowledged write (false trades crash durability for throughput)")
		spillIv  = flag.Duration("spill-interval", time.Minute, "with -data-dir: period between snapshot spills that bound WAL replay length (0: spill only at startup)")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown drain timeout")
		pprofOn  = flag.String("pprof", "", "also serve net/http/pprof on this address (e.g. localhost:6060); off when empty")

		role     = flag.String("role", "standalone", "node role: standalone | router (scatter-gather coordinator over -peers) | peer (shard node serving the /internal RPC surface)")
		peers    = flag.String("peers", "", "comma-separated name=url shard peers in version-vector order (router: the gather fan-out; peer: the full ring, for ownership filtering)")
		peerName = flag.String("peer-name", "", "role=peer: this node's name on the consistent-hash ring (must appear in -peers)")
		vnodes   = flag.Int("vnodes", 0, "virtual nodes per peer on the consistent-hash ring (0: 64)")
		peerTO   = flag.Duration("peer-timeout", 10*time.Second, "router: per-attempt RPC budget against each peer")
		hedge    = flag.Duration("hedge", 0, "router: straggler delay before the one hedged retry (0: peer-timeout/4)")
		probeIv  = flag.Duration("probe-interval", 2*time.Second, "router: peer health probe period")
		bootTO   = flag.Duration("bootstrap-timeout", time.Minute, "router: how long to wait for all peers at startup")
	)
	flag.Parse()

	if *pprofOn != "" {
		// A dedicated listener, never the query mux: profiling endpoints
		// stay bindable to loopback while the service faces traffic, and
		// are off entirely by default.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofOn)
			if err := http.ListenAndServe(*pprofOn, mux); err != nil {
				log.Printf("pprof listener failed: %v", err)
			}
		}()
	}

	var (
		net *pnn.Network
		db  *pnn.DB
		err error
	)
	switch {
	case *data != "":
		f, ferr := os.Open(*data)
		if ferr != nil {
			fatal(ferr)
		}
		net, db, err = pnn.LoadDataset(f)
		f.Close()
	case *dataset == "synthetic":
		net, db, err = pnn.SyntheticDataset(*states, 8, *objects, *lifetime, *horizon, *obsEvery, *seed)
	case *dataset == "taxi":
		net, db, err = pnn.TaxiDataset(*states, *objects, *lifetime, *horizon, *obsEvery, *seed)
	default:
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	fatal(err)

	if *workers < 1 {
		*workers = 1
	}
	if *qpar < 1 {
		*qpar = runtime.GOMAXPROCS(0) / *workers
		if *qpar < 1 {
			*qpar = 1
		}
	}
	scfg := server.Config{
		BatchWorkers: *workers, Ingest: *ingest, ShareBatch: *share,
		MaxSamplesCap: *capSamp, MaxSubscriptions: *maxSubs,
		Role: *role,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *role == server.RoleRouter {
		// The router indexes nothing: it owns the ring, scatters query
		// work to the peers and gathers merged, replay-exact answers.
		if *dataDir != "" {
			fatal(fmt.Errorf("role=router is stateless: -data-dir belongs on the peers, not the router"))
		}
		peerList, perr := parsePeers(*peers)
		fatal(perr)
		coord, cerr := cluster.NewCoordinator(net, cluster.Config{
			Peers: peerList, VirtualNodes: *vnodes,
			Timeout: *peerTO, HedgeDelay: *hedge, ProbeInterval: *probeIv,
			Workers: *qpar,
		})
		fatal(cerr)
		bctx, bcancel := context.WithTimeout(ctx, *bootTO)
		berr := coord.Bootstrap(bctx)
		bcancel()
		fatal(berr)
		coord.SetSweepInterval(*sweepIv)
		version, objects, vec := coord.SnapshotDetail()
		log.Printf("routing over %d peers (%d shards, %d objects, version %d, sample budget %d)",
			len(peerList), len(vec), objects, version, coord.SampleBudget())
		srv := server.New(net, coord, scfg)
		log.Printf("serving on %s", *addr)
		if err := srv.Run(ctx, *addr, *grace); err != nil {
			fatal(err)
		}
		log.Printf("shut down cleanly")
		return
	}

	if *role == server.RolePeer {
		// A peer loads the shared dataset but retains only the slice of
		// objects it owns on the ring before paying to index them.
		peerList, perr := parsePeers(*peers)
		fatal(perr)
		names := make([]string, len(peerList))
		found := false
		for i, p := range peerList {
			names[i] = p.Name
			found = found || p.Name == *peerName
		}
		if !found {
			fatal(fmt.Errorf("role=peer needs -peer-name naming one of -peers, got %q", *peerName))
		}
		rg, rerr := ring.New(names, *vnodes)
		fatal(rerr)
		before := db.Len()
		db.Retain(func(id int) bool { return rg.OwnerID(id) == *peerName })
		log.Printf("peer %s owns %d of %d objects", *peerName, db.Len(), before)
	} else if *role != server.RoleStandalone && *role != "" {
		fatal(fmt.Errorf("unknown role %q (want standalone, router or peer)", *role))
	}

	begin := time.Now()
	if *shards < 1 {
		*shards = 1
	}
	var (
		proc    *pnn.Processor
		skipped []int
		rec     *pnn.RecoveryInfo
	)
	if *dataDir != "" {
		// Durable build: recovery (spill load + WAL replay) happens here,
		// before the listener opens — a peer never announces healthy with
		// state it has not finished recovering.
		dur := pnn.Durability{Dir: *dataDir, Fsync: *fsync, SpillInterval: *spillIv}
		if *lenient {
			proc, skipped, rec, err = db.BuildLenientShardedDurable(*samples, *shards, dur)
		} else {
			proc, rec, err = db.BuildShardedDurable(*samples, *shards, dur)
		}
	} else if *lenient {
		proc, skipped, err = db.BuildLenientSharded(*samples, *shards)
	} else {
		proc, err = db.BuildSharded(*samples, *shards)
	}
	fatal(err)
	if len(skipped) > 0 {
		log.Printf("dropped %d objects with contradicting observations", len(skipped))
	}
	if rec != nil {
		if rec.Recovered {
			log.Printf("recovered %s to version %d: %d spill(s), %d WAL record(s) replayed, %d torn byte(s) truncated, %d corrupt spill fallback(s)",
				*dataDir, rec.Version, len(rec.SpillVersions), rec.ReplayedRecords, rec.TornBytes, rec.SpillFallbacks)
		} else {
			log.Printf("initialized durable state in %s (mode %s)", *dataDir, proc.DurabilityStatus().Mode())
		}
		defer func() {
			if cerr := proc.Close(); cerr != nil {
				log.Printf("closing durable state: %v", cerr)
			}
		}()
	}
	proc.SetParallelism(*qpar)
	proc.SetSweepInterval(*sweepIv)
	log.Printf("indexed %d objects over %d states in %v (%d shards, batch workers %d, per-query parallelism %d)",
		proc.NumObjects(), net.NumStates(), time.Since(begin), proc.NumShards(), *workers, *qpar)

	if *warm {
		begin = time.Now()
		fatal(proc.PrepareAll())
		log.Printf("adapted %d models in %v", proc.NumObjects(), time.Since(begin))
	}

	srv := server.New(net, proc, scfg)
	log.Printf("serving on %s", *addr)
	if err := srv.Run(ctx, *addr, *grace); err != nil {
		fatal(err)
	}
	log.Printf("shut down cleanly")
}

// parsePeers decodes the -peers flag: comma-separated name=url pairs,
// kept in the given order (it is the version-vector order).
func parsePeers(s string) ([]cluster.Peer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cluster roles need -peers (name=url,name=url,...)")
	}
	var out []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=url)", part)
		}
		out = append(out, cluster.Peer{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster roles need at least one -peers entry")
	}
	return out, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnnserve: %v\n", err)
		os.Exit(1)
	}
}
