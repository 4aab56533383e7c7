// Command pidcan-router fronts a federation of pidcan-serve primary
// processes with one serving surface: snapshot queries scatter-gather
// across every member (each a primary engine with its own WAL and
// follower set) under one deadline (-scatter-timeout), a consistent
// query runs the protocol on one member round-robin as an engine runs
// it on one shard, joins go round-robin over the members, and writes
// chase nodes migrated between members through a forwarding table —
// every id a node was ever known by stays routable.
//
//	pidcan-router -addr :8090 -members "hostA:9001,hostB:9001|hostB2:9001"
//
// -members is comma-separated; each member lists its wire addresses
// pipe-separated, primary first, promotable followers after. When a
// member's primary dies the router rotates onto the fallback
// addresses, and once a promoted follower answers with a higher
// replication epoch the router records it and stamps it into that
// member's writes. The epoch rides on every response a member sends,
// so nothing is stored on the members and routers do not talk to each
// other: any number of them may front the same members, each
// converging from what it observes.
//
// Endpoints: the standard JSON API (POST /query /update /join
// /leave /take, GET /nodes /stats /healthz) plus POST /migrate
// {"node":N,"member":M} (cross-process node migration). /stats carries
// the federation map under "map": each member's index, addresses and
// last observed epoch.
// -wire-addr adds the binary wire edge over the same router.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pidcan"
	"pidcan/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "HTTP listen address")
		wireAddr = flag.String("wire-addr", "", "binary wire-protocol listen address (empty disables)")
		members  = flag.String("members", "", "federation members: comma-separated, each a pipe-separated wire address list (primary first)")
		scatter  = flag.Duration("scatter-timeout", 2*time.Second, "whole-gather deadline of a snapshot query's member gather")
		grace    = flag.Duration("forward-grace", time.Minute, "how long a migrated-away id stays routable after its move")
		sumTTL   = flag.Duration("summary-ttl", time.Second, "max availability-summary age that may still prune a scatter leg")
		sumEvery = flag.Duration("summary-refresh", 250*time.Millisecond, "background summary exchange period (<0 disables)")
	)
	flag.Parse()

	var lists [][]string
	for _, m := range strings.Split(*members, ",") {
		var addrs []string
		for _, a := range strings.Split(m, "|") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			lists = append(lists, addrs)
		}
	}
	if len(lists) == 0 {
		log.Fatal("no federation members (-members \"hostA:9001,hostB:9001|hostB2:9001\")")
	}

	router, err := pidcan.NewFedRouter(pidcan.FedRouterConfig{
		Members:        lists,
		ScatterTimeout: *scatter,
		ForwardGrace:   *grace,
		SummaryTTL:     *sumTTL,
		SummaryRefresh: *sumEvery,
	})
	if err != nil {
		log.Fatal(err)
	}

	var ws *pidcan.WireServer
	if *wireAddr != "" {
		ws = pidcan.NewServiceWireServer(func() pidcan.Service { return router }, pidcan.WireServerConfig{})
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wire protocol on %s", *wireAddr)
		go func() {
			if err := ws.Serve(ln); err != nil {
				log.Printf("wire server: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: newHandler(router)}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		if ws != nil {
			ws.Close()
		}
		srv.Close()
	}()

	log.Printf("routing %d members on %s", len(lists), *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	router.Close()
}

// newHandler is the router's HTTP surface: the Service API plus POST
// /migrate, whose body is decoded and whose errors are answered as
// every other route's are.
func newHandler(router *pidcan.FedRouter) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", pidcan.NewHandler(router))
	mux.HandleFunc("POST /migrate", serve.HandleJSON(router, func(req struct {
		Node   pidcan.GlobalNodeID `json:"node"`
		Member int                 `json:"member"`
	}) (any, error) {
		return map[string]bool{"ok": true}, router.Migrate(req.Node, req.Member)
	}))
	return mux
}
