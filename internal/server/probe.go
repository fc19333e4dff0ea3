package server

import (
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/proto"
)

// Probe health-checks a tsserved backend over its ingest port: one
// connection, a {"probe":true} request line, and the server's Stats
// snapshot back in the response line. It exercises the same
// accept→negotiate→respond path sessions take, so a backend that accepts
// TCP but cannot serve (wedged accept loop, exhausted negotiator) fails
// the probe — unlike a bare dial check. The whole exchange is bounded by
// timeout (0 means 2s).
//
// A healthy answer returns the snapshot; every failure (dial, write,
// read, a response carrying an error) returns a non-nil error. Callers
// deciding a circuit breaker need only the error.
func Probe(addr string, timeout time.Duration) (*Stats, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := proto.NewLineWriter(conn, timeout).WriteRaw([]byte(`{"probe":true}` + "\n")); err != nil {
		return nil, fmt.Errorf("probe %s: sending request: %w", addr, err)
	}
	done := make(chan struct{})
	defer close(done)
	line := <-proto.ReadLines(conn, done)
	if line.Err != nil {
		return nil, fmt.Errorf("probe %s: reading response: %w", addr, line.Err)
	}
	var resp Response
	if err := json.Unmarshal(line.Data, &resp); err != nil {
		return nil, fmt.Errorf("probe %s: parsing response: %w", addr, err)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("probe %s: server: %s", addr, resp.Error)
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("probe %s: response carries no stats", addr)
	}
	return resp.Stats, nil
}
