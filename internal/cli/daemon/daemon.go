// Package daemon is the main the network daemons (tsserved, tsgate)
// share: their common flags, stats listener, readiness lines and signal
// drain. It sits apart from internal/cli so the other commands do not
// link the HTTP stack the stats listener needs.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/proto"
)

// Main is what the network daemons' mains do alike: the -config,
// -log-format/-log-level, -stats, -pprof and -drain-timeout flags, the
// stats listener, the readiness lines, and the SIGINT/SIGTERM drain. A
// command calls New, registers its own flags, calls Parse, builds its
// server, and hands it to Run.
type Main struct {
	name         string
	configFile   string
	statsAddr    string
	pprof        bool
	drainTimeout time.Duration
	logFlags     *obs.LogFlags

	// Logger is the -log-format/-log-level logger on stderr, set by Parse.
	Logger *slog.Logger
}

// New registers the shared daemon flags on flag.CommandLine. name
// prefixes every line the daemon prints.
func New(name string) *Main {
	d := &Main{name: name}
	fs := flag.CommandLine
	fs.StringVar(&d.configFile, "config", "", "config file with flag defaults (key=value lines or a JSON object); explicit flags win")
	fs.StringVar(&d.statsAddr, "stats", "", "stats HTTP listen address (empty = disabled)")
	fs.BoolVar(&d.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the stats listener")
	fs.DurationVar(&d.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for in-flight sessions")
	d.logFlags = obs.AddLogFlags(fs)
	return d
}

// Parse parses the command line, layers -config under it (explicit flags
// win), and builds Logger. Positional arguments and every other failure
// are fatal.
func (d *Main) Parse() {
	flag.Parse()
	if flag.NArg() > 0 {
		d.Fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if d.configFile != "" {
		if err := cli.ApplyConfig(flag.CommandLine, d.configFile); err != nil {
			d.Fatal(err)
		}
	}
	logger, err := d.logFlags.Logger(os.Stderr)
	if err != nil {
		d.Fatal(err)
	}
	d.Logger = logger
}

// Fatal prints "<name>: err" on stderr and exits 2.
func (d *Main) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", d.name, err)
	os.Exit(2)
}

// Server is what a daemon serves: a server.Server or a gateway.Gateway.
type Server interface {
	Addr() net.Addr
	Serve() error
	Shutdown(ctx context.Context) error
	StatsHandler() http.Handler
	Registry() *obs.Registry
}

// Run serves srv until SIGINT or SIGTERM, then drains it. First it
// prints the readiness lines supervisors and the end-to-end tests wait
// for: "<name>: listening on <addr> <detail>" and, with -stats,
// "<name>: stats on http://<addr>/stats and /metrics", whose listener
// serves srv's /stats and /metrics, the extra routes, and with -pprof
// the profiles. On a signal it drains for up to -drain-timeout and
// prints "<name>: drained: " and the summary drained returns. Run
// returns after a complete drain; an incomplete one exits 1, and a Serve
// that fails on its own exits 2.
func (d *Main) Run(srv Server, detail string, routes map[string]http.Handler, drained func() string) {
	fmt.Printf("%s: listening on %s %s\n", d.name, srv.Addr(), detail)
	var statsSrv *http.Server
	if d.statsAddr != "" {
		ln, err := net.Listen("tcp", d.statsAddr)
		if err != nil {
			d.Fatal(err)
		}
		statsSrv = &http.Server{Handler: obs.NewMux(srv.StatsHandler(), srv.Registry(), d.pprof, routes)}
		go func() {
			if err := statsSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "%s: stats listener: %v\n", d.name, err)
			}
		}()
		fmt.Printf("%s: stats on http://%s/stats and /metrics\n", d.name, ln.Addr())
	}
	os.Stdout.Sync()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	select {
	case err := <-serveErr:
		if !errors.Is(err, proto.ErrClosed) {
			d.Fatal(err)
		}
		return
	case <-sigCtx.Done():
	}
	stop() // restore default handling: a second signal kills at once
	fmt.Printf("%s: signal: draining (timeout %v)\n", d.name, d.drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if statsSrv != nil {
		statsSrv.Close()
	}
	fmt.Printf("%s: drained: %s\n", d.name, drained())
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", d.name, err)
		os.Exit(1)
	}
}
