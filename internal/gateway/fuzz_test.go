package gateway

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/proto"
	"repro/internal/server"
)

// FuzzBackendLine runs every line a backend could send the gateway —
// split the way the backend leg's reader splits them, the error that ends
// the reads included — through classifyBackendLine. Nothing may panic,
// and each verdict must agree with the line itself: a result is an
// intact response carrying a result and no error; a decline is a busy or
// draining error, a rejection any other error, each with its message; a
// failed read, an unparsable line, and a line that is neither result nor
// error are dead.
func FuzzBackendLine(f *testing.F) {
	for _, resp := range []server.Response{
		{Result: &server.SessionResult{Window: 4, States: [3]int{1, 2, 1}}},
		{Error: "server busy", Code: server.CodeBusy, RetryAfterMS: 100},
		{Error: "server draining", Code: server.CodeDraining},
		{Error: "bad request", Code: server.CodeBadRequest},
		{Error: "stream", Code: server.CodeStream},
		{Error: "no code"},
		{Stats: &server.Stats{}},
		{},
	} {
		line, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	f.Add([]byte("{\"result\":null,\"error\":\"\"}\n{\"ack\":3}\nnot json\n{\"error\":"))

	f.Fuzz(func(t *testing.T, data []byte) {
		done := make(chan struct{})
		defer close(done)
		lines := proto.ReadLines(bytes.NewReader(data), done)
		for {
			msg := <-lines
			v, text := classifyBackendLine(msg)
			var resp server.Response
			parsed := msg.Err == nil && json.Unmarshal(msg.Data, &resp) == nil
			shed := resp.Code == server.CodeBusy || resp.Code == server.CodeDraining
			var ok bool
			switch v {
			case lineResult:
				ok = parsed && resp.Error == "" && resp.Result != nil && text == ""
			case lineDeclined:
				ok = parsed && resp.Error != "" && shed && text == resp.Error
			case lineRejected:
				ok = parsed && resp.Error != "" && !shed && text == resp.Error
			case lineDead:
				ok = (!parsed || resp.Error == "" && resp.Result == nil) && text == ""
			}
			if !ok {
				t.Fatalf("line %q (read error %v): verdict %d, text %q", msg.Data, msg.Err, v, text)
			}
			if msg.Err != nil {
				return
			}
		}
	})
}
