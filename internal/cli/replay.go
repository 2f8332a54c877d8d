package cli

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"doublechecker/internal/core"
	"doublechecker/internal/store"
	"doublechecker/internal/trace"
)

// replayed is one trace replay's outcome: a fresh run (data and res set) or
// a result-store hit (hit set).
type replayed struct {
	data *trace.Data
	res  *core.Result
	hit  *store.Entry
}

// replayTrace checks the trace file at path under cfg; it is the one replay
// path behind `dcheck -replay` and `dctrace replay`. With a nil cache the
// file is decoded and replayed. With a cache the lookup is byte-addressed:
// the file is read once, the header plus a raw-byte digest form the key,
// and the full decode only happens on a miss. fresh skips the lookup (a
// -stats-json report needs the metrics of an actual run) but still stores
// the result. A run whose PCD pool quarantined an SCC is not stored: its
// verdict is incomplete.
func replayTrace(ctx context.Context, path string, cfg core.Config, cache *store.Store, fresh bool) (replayed, error) {
	if cache == nil {
		d, err := trace.ReadFile(path)
		if err != nil {
			return replayed{}, err
		}
		res, err := core.RunTrace(ctx, d, cfg)
		return replayed{data: d, res: res}, err
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		return replayed{}, err
	}
	hdr, rest, err := trace.PeekHeader(bytes.NewReader(raw))
	if err != nil {
		return replayed{}, fmt.Errorf("%s: %w", path, err)
	}
	key := store.TraceKey(hdr, store.BodyDigest(raw), cfg.Analysis.String())
	if !fresh {
		if e, ok := cache.Get(key); ok {
			return replayed{hit: e}, nil
		}
	}
	d, err := trace.Read(rest)
	if err != nil {
		return replayed{}, fmt.Errorf("%s: %w", path, err)
	}
	res, err := core.RunTrace(ctx, d, cfg)
	if err != nil {
		return replayed{}, err
	}
	if len(res.PCDQuarantined) == 0 {
		if err := cache.Put(key, &store.Entry{
			Program:    d.Header.Program.Name,
			Events:     d.Counts.Total(),
			Violations: len(res.Violations),
			Blamed:     res.BlamedMethodNames(d.Header.Program),
		}); err != nil {
			return replayed{}, err
		}
	}
	return replayed{data: d, res: res}, nil
}
