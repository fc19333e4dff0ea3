package store

import "testing"

// TestDeliverable checks the presizing bound store.Analyze gives each
// Session: the records the query's range can deliver from the archive.
func TestDeliverable(t *testing.T) {
	e := Entry{Records: 60000}
	for _, c := range []struct {
		from, to int64
		want     int
	}{
		{0, 0, 60000},         // no range: the whole archive
		{15000, 35000, 20000}, // a range inside the archive
		{15000, 0, 45000},     // from a position to the end
		{0, 20000, 20000},     // from the start
		{50000, 90000, 10000}, // a range past the end
		{70000, 0, 0},         // starting past the end
		{30000, 20000, 0},     // an empty range
	} {
		if got := (Query{From: c.from, To: c.to}).deliverable(e); got != c.want {
			t.Errorf("From %d To %d: deliverable %d, want %d", c.from, c.to, got, c.want)
		}
	}
}
