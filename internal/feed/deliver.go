package feed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/tenant"
)

// Deliverer hands a batch of events to the serving layer. Deliver must
// be all-or-nothing from the feeder's point of view: it returns nil
// only when every deliverable event was acknowledged (invalid events —
// ones the server can never accept — are skipped, not failed), and it
// retries transient rejections internally until ctx is done. Redelivery
// after a partial failure is safe: events carry sequence numbers and
// the serving layer deduplicates.
type Deliverer interface {
	Deliver(ctx context.Context, events []serve.Event) error
}

// Backoff is a capped exponential retry schedule.
type Backoff struct {
	// Min is the first delay (default 50ms).
	Min time.Duration
	// Max caps the delay (default 5s).
	Max time.Duration
}

// delay returns the backoff for the given retry attempt (0-based).
func (b Backoff) delay(attempt int) time.Duration {
	min, max := b.Min, b.Max
	if min <= 0 {
		min = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := min << uint(attempt)
	if d > max || d < min { // d < min catches shift overflow
		d = max
	}
	return d
}

// sleep waits out the delay or the context, whichever ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// HTTPDeliverer posts event batches to a ucad-serve (or multi-tenant
// router) /v1/events endpoint. Tenant routing follows the server's
// precedence: each event's body tenant field wins, the X-UCAD-Tenant
// header (set from Tenant) covers the rest.
//
// Error responses are classified by the structured error envelope
// ({"error":{"code","message","retryable"}}) when the server sends one:
// retryable errors (backpressure, shutdown, a draining tenant) are
// retried with capped exponential backoff and Retry-After honored; a
// non-retryable error with per-event statuses means the rejected events
// are permanently invalid and skipped (counted in the dropped metric)
// while the accepted ones are done; a non-retryable error without
// statuses (invalid body, unknown tenant) means nothing was absorbed,
// so it is a hard failure rather than silent loss. A replayed batch is
// always safe because the server deduplicates by sequence number.
//
// Responses without an envelope — proxies and other intermediaries —
// fall back to status-code classification: 503 (with
// Retry-After), 429, 502/504 and transport errors retry indefinitely;
// other 5xx statuses (501, 505, ... — usually a misconfigured endpoint,
// not load) retry a bounded number of times before failing; a 400 is
// trusted only when its body carries per-event statuses. Batches whose
// JSON encoding would exceed the server's request cap are split before
// posting.
//
// With a URL list (URLs) the deliverer fails over between servers, but
// never silently: events only ever post to the established server (the
// one that last acknowledged, initially the first URL). When that server
// becomes unreachable — a dead socket, or an envelope-less 5xx from a
// proxy fronting a dead backend — the others are health-probed
// (GET /healthz), and if one answers, Deliver returns ErrFailover
// WITHOUT delivering the batch: the new server must not see mid-stream
// events before the caller has rewound (a serving-layer dedupe fence
// would jump past the replication gap and the skipped operations could
// never land). The caller rewinds and redelivers; subsequent calls post
// to the new server. A live server's own retryable refusals — an
// envelope-carrying 503 from backpressure, a draining tenant, a standby
// awaiting promotion — are retried in place with backoff and never
// trigger a failover. Failovers() reports how many times the established
// server changed. The deliverer is not safe for concurrent use once URLs
// is set.
type HTTPDeliverer struct {
	// URL is the server base, e.g. "http://127.0.0.1:8844".
	URL string
	// URLs is the failover list of server bases in preference order
	// (primary first, then standbys). When non-empty it takes precedence
	// over URL.
	URLs []string
	// Tenant, when non-empty, is sent as the X-UCAD-Tenant header.
	Tenant string
	// Client is the HTTP client (nil means a 10s-timeout default).
	Client  *http.Client
	Backoff Backoff
	Metrics *SourceMetrics

	// cur indexes targets() at the established server — the only one
	// real events are posted to.
	cur       int
	failovers int64
}

// ErrFailover reports that the established server stopped answering and
// a different URL in the list is healthy. The pending batch was NOT
// delivered to the new server: the caller gets the chance to rewind its
// stream first (see FeederConfig.FailoverRewind), so the first events a
// freshly promoted standby sees are the rewound prefix rather than a
// mid-stream batch that would advance its dedupe fences past the
// replication gap. Calling Deliver again targets the new server.
var ErrFailover = errors.New("feed: delivery failing over to a different server")

// targets resolves the effective URL list.
func (d *HTTPDeliverer) targets() []string {
	if len(d.URLs) > 0 {
		return d.URLs
	}
	return []string{d.URL}
}

// Failovers counts how many times the established server changed. A
// caller that snapshots the count around a Deliver call can tell the
// serving side changed and rewind accordingly.
func (d *HTTPDeliverer) Failovers() int64 { return d.failovers }

// maxBatchBytes bounds one marshalled POST body. The server rejects
// request bodies over 8 MiB outright (serve.DecodeEvents), and that
// rejection is a decode-level 400 where nothing was absorbed — so the
// deliverer splits batches well below the cap instead of finding out.
const maxBatchBytes = 6 << 20

// maxCapped5xxAttempts bounds retries of 5xx statuses other than
// 502/503/504: a 501 or 505 is a misconfigured endpoint, not load, and
// retrying it forever would wedge the feeder instead of surfacing the
// configuration error.
const maxCapped5xxAttempts = 6

// Deliver implements Deliverer.
func (d *HTTPDeliverer) Deliver(ctx context.Context, events []serve.Event) error {
	if len(events) == 0 {
		return nil
	}
	client := d.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return d.deliver(ctx, client, events)
}

// deliver posts one batch, splitting it when its encoding would exceed
// the server's request cap.
func (d *HTTPDeliverer) deliver(ctx context.Context, client *http.Client, events []serve.Event) error {
	body, err := json.Marshal(events)
	if err != nil {
		return fmt.Errorf("feed: encode batch: %w", err)
	}
	if len(body) > maxBatchBytes {
		if len(events) == 1 {
			// A single event the server's request cap can never admit:
			// dropping beats wedging the stream, same as an invalid event.
			d.Metrics.dropped(1)
			return nil
		}
		mid := len(events) / 2
		if err := d.deliver(ctx, client, events[:mid]); err != nil {
			return err
		}
		return d.deliver(ctx, client, events[mid:])
	}
	urls := d.targets()
	capped := 0
	for attempt := 0; ; attempt++ {
		d.cur %= len(urls)
		res, err := d.post(ctx, client, urls[d.cur], body, len(events))
		if err == nil {
			d.Metrics.delivered(res.accepted)
			d.Metrics.dropped(res.rejected)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return err
		}
		if res.cappedRetry {
			if capped++; capped >= maxCapped5xxAttempts {
				return &permanentError{fmt.Errorf("feed: giving up after %d attempts: %w", capped, err)}
			}
		}
		// An unreachable established server — dead socket, or an
		// envelope-less 5xx from a proxy fronting a dead backend — is the
		// failover trigger: probe the other URLs and hand control back
		// before any of them sees real events. A live server's own
		// envelope-carrying refusals (backpressure, draining, awaiting
		// promotion) are retried in place instead: busy is not dead.
		if len(urls) > 1 && !res.serverAlive {
			for next := (d.cur + 1) % len(urls); next != d.cur; next = (next + 1) % len(urls) {
				if d.probe(ctx, client, urls[next]) {
					d.cur = next
					d.failovers++
					d.Metrics.failedOver()
					return ErrFailover
				}
			}
		}
		d.Metrics.retried()
		delay := d.Backoff.delay(attempt)
		if res.retryAfter > delay {
			delay = res.retryAfter
		}
		if serr := sleep(ctx, delay); serr != nil {
			return serr
		}
	}
}

// probe asks url for liveness without sending it any events.
func (d *HTTPDeliverer) probe(ctx context.Context, client *http.Client, url string) bool {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// permanentError marks a response retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// eventsResponse is the server's /v1/events response with the top-level
// "error" key captured raw (the shallower field wins the key, so the
// embedded Err stays nil): a proxy's JSON error page may put anything
// there, and only a well-formed envelope counts — its retryable bit
// tells the deliverer whether resending the identical batch can ever
// succeed.
type eventsResponse struct {
	tenant.EventsResponse
	RawError json.RawMessage `json:"error,omitempty"`
}

// envelope decodes the structured error envelope, nil when the response
// carries none (2xx, or a proxy error page).
func (er *eventsResponse) envelope() *tenant.ErrorInfo {
	if len(er.RawError) == 0 {
		return nil
	}
	var e tenant.ErrorInfo
	if json.Unmarshal(er.RawError, &e) != nil || e.Code == "" {
		return nil
	}
	return &e
}

// postResult classifies one POST attempt: how many events the server
// acknowledged or permanently refused, plus retry hints on failure.
type postResult struct {
	accepted    int
	rejected    int
	retryAfter  time.Duration
	cappedRetry bool // retryable, but only a bounded number of times
	// serverAlive marks a refusal that provably came from a live serving
	// process (it spoke the error envelope) — retry in place, never a
	// reason to fail over.
	serverAlive bool
}

// post sends one batch of n events to url and classifies the response.
func (d *HTTPDeliverer) post(ctx context.Context, client *http.Client, url string, body []byte, n int) (postResult, error) {
	var res postResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/events", bytes.NewReader(body))
	if err != nil {
		return res, &permanentError{fmt.Errorf("feed: build request: %w", err)}
	}
	req.Header.Set("Content-Type", "application/json")
	if d.Tenant != "" {
		req.Header.Set(tenant.TenantHeader, d.Tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return res, fmt.Errorf("feed: post events: %w", err)
	}
	rbody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var er eventsResponse
	parsed := json.Unmarshal(rbody, &er) == nil

	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		// A 2xx batch code means no event was rejected, but trust the
		// per-event statuses when present (a lenient proxy could differ).
		res.accepted = n
		if parsed && len(er.Events) > 0 {
			res.accepted = er.Accepted
			res.rejected = n - er.Accepted
		}
		return res, nil
	}

	// Envelope-first: when the response carries the structured error
	// envelope, its retryable bit is authoritative — the server knows
	// whether resending this batch can succeed, which a status code
	// alone can't say (a 503 from a draining tenant and a 503 from a
	// broken proxy look identical on the wire).
	if parsed {
		if env := er.envelope(); env != nil {
			if env.Retryable {
				res.serverAlive = true
				if s := resp.Header.Get("Retry-After"); s != "" {
					if secs, err := strconv.Atoi(s); err == nil {
						res.retryAfter = time.Duration(secs) * time.Second
					}
				}
				return res, fmt.Errorf("feed: server busy (%s): %s", env.Code, resp.Status)
			}
			if len(er.Events) > 0 {
				// Per-event statuses with a non-retryable batch code: the
				// server attempted every event (retryable rejections would
				// have outranked these in the batch code), so the rejected
				// events can never become valid — skip them.
				res.accepted = er.Accepted
				res.rejected = n - er.Accepted
				return res, nil
			}
			// Non-retryable without per-event statuses (invalid_body,
			// unknown_tenant, ...): nothing was absorbed, so "done" would
			// be silent loss.
			return res, &permanentError{fmt.Errorf("feed: server rejected request (%s): %s: %.200s", env.Code, resp.Status, env.Message)}
		}
	}

	// No envelope (a proxy error page, a truncated body): fall back to
	// classifying by status code.
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusGatewayTimeout:
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				res.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return res, fmt.Errorf("feed: server busy: %s", resp.Status)
	case resp.StatusCode >= 500:
		res.cappedRetry = true
		return res, fmt.Errorf("feed: server error: %s", resp.Status)
	case resp.StatusCode == http.StatusBadRequest:
		if parsed && len(er.Events) > 0 {
			// Per-event statuses: the server attempted every event, and a
			// 400 batch code means none of the rejections are retryable
			// (backpressure would have outranked them to a 503) — the
			// rejected events can never become valid, so skip them.
			res.accepted = er.Accepted
			res.rejected = n - er.Accepted
			return res, nil
		}
		// Decode-level 400 (oversized body, proxy rejection, ...): the
		// server absorbed nothing, so "done" would be silent loss.
		return res, &permanentError{fmt.Errorf("feed: server rejected request body: %s: %.200s", resp.Status, rbody)}
	default:
		return res, &permanentError{fmt.Errorf("feed: server rejected batch: %s", resp.Status)}
	}
}
