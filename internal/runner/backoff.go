package runner

import (
	"hash/fnv"
	"time"
)

// Backoff defaults.
const (
	// DefaultBackoffBase is the delay before the first retry.
	DefaultBackoffBase = 100 * time.Millisecond
	// DefaultBackoffMax caps the exponential growth.
	DefaultBackoffMax = 5 * time.Second
)

// BackoffDelay returns the sleep before retry number `retry` (1-based) of
// the identified task: base·2^(retry-1), capped at max, plus up to 50 %
// deterministic jitter derived from the task ID and retry index. Hashed
// jitter decorrelates sibling retries without any global randomness, so
// a re-run of the same batch backs off identically — determinism is a
// repo-wide invariant. Remote workers polling a dispatcher and the HTTP
// client's retries both pace themselves with it.
// A retry index below 1 (attempt zero, or a caller bug) is treated as 1
// so the delay is never zero or negative, and growth saturates at max
// before the doubling can overflow — with a max near the top of the
// int64 range the old loop could wrap negative and return a negative
// delay, which time.NewTimer treats as "fire immediately", collapsing
// the backoff into a hot loop.
func BackoffDelay(base, max time.Duration, id string, retry int) time.Duration {
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	if retry < 1 {
		retry = 1
	}
	d := base
	for i := 1; i < retry; i++ {
		if d > max/2 {
			d = max // doubling again would pass (or overflow past) max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	j := time.Duration(float64(d) * 0.5 * jitterFraction(id, retry))
	if sum := d + j; sum >= d {
		return sum
	}
	return d // jitter pushed past the int64 edge; saturate, don't wrap
}

// jitterFraction hashes (id, retry) into [0, 1).
func jitterFraction(id string, retry int) float64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{byte(retry), byte(retry >> 8), byte(retry >> 16), byte(retry >> 24)})
	return float64(h.Sum64()>>11) / float64(1<<53)
}
