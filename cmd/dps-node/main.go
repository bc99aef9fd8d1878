// Command dps-node runs one DPS peer over real TCP. The first node of a
// deployment runs with -bootstrap to also host the directory service;
// every other node points -dir at it and -join at any existing peer.
//
//	# terminal 1 — bootstrap peer with directory on :7000
//	dps-node -id 1 -listen 127.0.0.1:7001 -bootstrap 127.0.0.1:7000 \
//	         -subscribe "price>100 && price<200"
//
//	# terminal 2 — subscriber
//	dps-node -id 2 -listen 127.0.0.1:7002 -dir 127.0.0.1:7000 \
//	         -join 1=127.0.0.1:7001 -subscribe "sym=acme*"
//
//	# terminal 3 — publisher, one event per second
//	dps-node -id 3 -listen 127.0.0.1:7003 -dir 127.0.0.1:7000 \
//	         -join 1=127.0.0.1:7001 -publish "price=150, sym=acme" -every 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/tcpnet"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id        = flag.Int64("id", 0, "unique node id (required, > 0)")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP address for overlay traffic")
		bootstrap = flag.String("bootstrap", "", "also host the directory service on this address")
		dir       = flag.String("dir", "", "directory service address (when not bootstrapping)")
		join      = flag.String("join", "", "comma-separated peer book entries id=host:port")
		subscribe = flag.String("subscribe", "", "semicolon-separated subscriptions")
		publish   = flag.String("publish", "", "event to publish (repeatedly with -every)")
		every     = flag.Duration("every", 0, "publication period; 0 publishes once")
		tick      = flag.Duration("tick", 10*time.Millisecond, "protocol step length")
	)
	flag.Parse()
	if *id <= 0 {
		fmt.Fprintln(os.Stderr, "dps-node: -id must be a positive integer")
		return 2
	}
	if *bootstrap == "" && *dir == "" {
		fmt.Fprintln(os.Stderr, "dps-node: need -bootstrap (first node) or -dir (joining node)")
		return 2
	}

	dirAddr := *dir
	if *bootstrap != "" {
		srv, err := tcpnet.ListenDirectory(*bootstrap, *id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-node:", err)
			return 1
		}
		defer srv.Close()
		dirAddr = srv.Addr()
		fmt.Println("directory service on", dirAddr)
	}

	client := tcpnet.DialDirectory(dirAddr)
	defer client.Close()
	cfg := core.DefaultConfig()
	cfg.Directory = client
	node, err := core.NewNode(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-node:", err)
		return 1
	}
	node.OnDeliverHook(func(_ core.EventID, ev filter.Event) {
		fmt.Printf("%s NOTIFY %v\n", time.Now().Format("15:04:05.000"), ev)
	})

	tr, err := tcpnet.New(tcpnet.Config{
		ID:        sim.NodeID(*id),
		Listen:    *listen,
		TickEvery: *tick,
		Seed:      *id,
	}, node)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-node:", err)
		return 1
	}
	defer tr.Close()
	fmt.Printf("node %d listening on %s\n", *id, tr.Addr())

	if *join != "" {
		for _, entry := range strings.Split(*join, ",") {
			parts := strings.SplitN(strings.TrimSpace(entry), "=", 2)
			if len(parts) != 2 {
				fmt.Fprintf(os.Stderr, "dps-node: bad -join entry %q (want id=addr)\n", entry)
				return 2
			}
			pid, err := strconv.ParseInt(parts[0], 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dps-node: bad peer id %q\n", parts[0])
				return 2
			}
			tr.AddPeer(sim.NodeID(pid), parts[1])
		}
	}

	if *subscribe != "" {
		for _, text := range strings.Split(*subscribe, ";") {
			sub, err := filter.ParseSubscription(strings.TrimSpace(text))
			if err != nil {
				fmt.Fprintln(os.Stderr, "dps-node:", err)
				return 2
			}
			var subErr error
			if err := tr.Do(func() { subErr = node.Subscribe(sub) }); err != nil {
				fmt.Fprintln(os.Stderr, "dps-node:", err)
				return 1
			}
			if subErr != nil {
				fmt.Fprintln(os.Stderr, "dps-node:", subErr)
				return 2
			}
			fmt.Println("subscribed:", sub)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *publish != "" {
		ev, err := filter.ParseEvent(*publish)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-node:", err)
			return 2
		}
		seq := core.EventID(*id) << 32
		pub := func() {
			seq++
			var pubErr error
			if err := tr.Do(func() { pubErr = node.Publish(seq, ev) }); err == nil && pubErr == nil {
				fmt.Printf("%s PUBLISH %v\n", time.Now().Format("15:04:05.000"), ev)
			}
		}
		time.Sleep(20 * *tick) // let subscriptions elsewhere settle
		pub()
		if *every > 0 {
			ticker := time.NewTicker(*every)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					pub()
				case <-stop:
					return 0
				}
			}
		}
	}

	<-stop
	return 0
}
