// Standing-query endpoints: /v1/subscribe registers a SubscriptionSpec
// and either streams its events over Server-Sent Events on the same
// connection or hands back a subscription id for long-polling;
// /v1/subscriptions lists, long-polls and cancels registered
// subscriptions.
//
// The wire contract mirrors the one-shot endpoints deliberately: each
// answer event embeds a full QueryResponse — results, stats and the
// sampling block — evaluated at the snapshot version the event names,
// and is byte-identical to what the matching one-shot endpoint would
// have answered at that version with the subscription's seed.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pnn"
)

// Delivery transports of a subscription.
const (
	TransportSSE  = "sse"  // stream events on the subscribe connection
	TransportPoll = "poll" // queue events for GET /v1/subscriptions/{id}/events
)

// sseQueueCap sizes the per-subscription event queue behind the HTTP
// transports; slow consumers lose oldest events (surfaced via
// "dropped"), never block ingest.
const sseQueueCap = 64

// DeliveryJSON is the "delivery" block of a SubscriptionSpec.
type DeliveryJSON struct {
	// Transport is "sse" (default) or "poll".
	Transport string `json:"transport,omitempty"`
	// MinIntervalMS coalesces events: at most one delivery per interval,
	// always the newest result.
	MinIntervalMS int `json:"min_interval_ms,omitempty"`
	// OnChangeOnly suppresses re-evaluations whose answer is unchanged.
	OnChangeOnly bool `json:"on_change_only,omitempty"`
}

// SubscriptionSpec is the body of /v1/subscribe: a semantics tag, a
// canonical QuerySpec and an optional delivery block. Unlike the
// one-shot endpoints, the legacy flat alias spellings are rejected here
// (code "use_query_spec") — new surface, canonical schema only.
type SubscriptionSpec struct {
	Semantics string `json:"semantics"` // "forall" | "exists" | "cnn"
	QuerySpec
	Delivery *DeliveryJSON `json:"delivery,omitempty"`
}

// SubEventJSON is one delivered subscription event: an SSE "data:"
// frame, or an element of a poll response. Response is absent on the
// terminal bye event.
type SubEventJSON struct {
	SubID   int64  `json:"sub_id"`
	Seq     int64  `json:"seq"`
	Event   string `json:"event"` // "answer" | "bye"
	Version int64  `json:"version,omitempty"`
	// Dropped counts events this subscription has lost in total to its
	// bounded queue; a jump between consecutive events tells the
	// consumer it missed intermediate versions.
	Dropped  int64          `json:"dropped,omitempty"`
	Response *QueryResponse `json:"response,omitempty"`
	// Sweep reports how the group pass produced this answer; absent on
	// bye events.
	Sweep *SubSweepJSON `json:"sweep,omitempty"`
}

// SubSweepJSON is the per-event fanout diagnostic block: how many
// compatible standing queries shared this evaluation pass, how many
// possible worlds the pass drew, the adaptive floor in effect (for
// confidence queries), and whether that floor was reused from the
// group's previously proven budget. The embedded QueryResponse stays
// byte-identical to the one-shot envelope; this block rides on the
// event wrapper only.
type SubSweepJSON struct {
	GroupSize    int  `json:"group_size,omitempty"`
	Worlds       int  `json:"worlds,omitempty"`
	WorldFloor   int  `json:"world_floor,omitempty"`
	BudgetReused bool `json:"budget_reused,omitempty"`
}

// SubscribeResponse is the body of a poll-transport /v1/subscribe call.
type SubscribeResponse struct {
	APIVersion     string `json:"api_version"`
	SubscriptionID int64  `json:"subscription_id"`
	Transport      string `json:"transport"`
}

// SubInfoJSON describes one registered subscription in /v1/subscriptions.
type SubInfoJSON struct {
	ID            int64  `json:"id"`
	Transport     string `json:"transport"`
	MinIntervalMS int    `json:"min_interval_ms,omitempty"`
	OnChangeOnly  bool   `json:"on_change_only,omitempty"`
	Events        int64  `json:"events"`       // events emitted so far (delivered + queued)
	LastVersion   int64  `json:"last_version"` // snapshot version of the newest emitted answer
	Dropped       int64  `json:"dropped"`
	Influencers   int    `json:"influencers"` // inverted-index footprint: objects mapping to this subscription
}

// SubListResponse is the body of GET /v1/subscriptions.
type SubListResponse struct {
	APIVersion    string        `json:"api_version"`
	Subscriptions []SubInfoJSON `json:"subscriptions"`
}

// SubEventsResponse is the body of GET /v1/subscriptions/{id}/events.
type SubEventsResponse struct {
	APIVersion string         `json:"api_version"`
	Events     []SubEventJSON `json:"events"`
	// Closed reports the subscription has delivered its terminal bye and
	// will never produce another event.
	Closed bool `json:"closed,omitempty"`
}

// handleSubscribe registers a standing query. SSE transport keeps the
// connection open and streams events until the subscription dies (or
// the client disconnects, which cancels it); poll transport answers
// immediately with the subscription id.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use POST")
		return
	}
	var spec SubscriptionSpec
	if err := decodeBody(r, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidBody, "", err)
		return
	}
	pr, aerr := s.toRequest(pnn.Semantics(spec.Semantics), spec.QuerySpec)
	if aerr != nil {
		httpError(w, http.StatusBadRequest, aerr.code, aerr.field, aerr.msg)
		return
	}
	d := DeliveryJSON{Transport: TransportSSE}
	if spec.Delivery != nil {
		d = *spec.Delivery
		if d.Transport == "" {
			d.Transport = TransportSSE
		}
	}
	if d.Transport != TransportSSE && d.Transport != TransportPoll {
		httpError(w, http.StatusBadRequest, CodeInvalidDelivery, "delivery.transport",
			fmt.Sprintf("unknown transport %q (want %q or %q)", d.Transport, TransportSSE, TransportPoll))
		return
	}
	if d.MinIntervalMS < 0 {
		httpError(w, http.StatusBadRequest, CodeInvalidDelivery, "delivery.min_interval_ms",
			"min_interval_ms must be >= 0")
		return
	}
	if s.proc.NumSubscriptions() >= s.cfg.MaxSubscriptions {
		httpError(w, http.StatusTooManyRequests, CodeSubLimit, "",
			fmt.Sprintf("subscription limit %d reached", s.cfg.MaxSubscriptions))
		return
	}
	sub, err := s.proc.Subscribe(pr, pnn.Delivery{
		Transport:    d.Transport,
		MinInterval:  time.Duration(d.MinIntervalMS) * time.Millisecond,
		OnChangeOnly: d.OnChangeOnly,
		QueueCap:     sseQueueCap,
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidQuery, "", err)
		return
	}
	if d.Transport == TransportPoll {
		writeJSON(w, http.StatusOK, SubscribeResponse{
			APIVersion: APIVersion, SubscriptionID: sub.ID(), Transport: TransportPoll,
		})
		return
	}
	s.streamSSE(w, r, sub)
}

// streamSSE writes a subscription's events as Server-Sent Events until
// the terminal bye frame or client disconnect. Each frame is
//
//	id: <seq>
//	event: answer | bye
//	data: <SubEventJSON>
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, sub *pnn.Subscription) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.proc.Unsubscribe(sub.ID())
		httpError(w, http.StatusNotImplemented, CodeInvalidDelivery, "delivery.transport",
			"connection does not support streaming; use the poll transport")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case e, open := <-sub.Events():
			if !open {
				return
			}
			frame := eventJSON(sub.ID(), e)
			data, err := json.Marshal(frame)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, frame.Event, data)
			fl.Flush()
			if e.Bye {
				return
			}
		case <-r.Context().Done():
			// The consumer is gone: cancel the standing query so the
			// engine stops re-evaluating it. The registry's bye lands on
			// a channel nobody reads; its queue is bounded and orphaned,
			// so nothing leaks or blocks.
			s.proc.Unsubscribe(sub.ID())
			return
		}
	}
}

// handleSubscriptions answers GET /v1/subscriptions.
func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use GET")
		return
	}
	infos := s.proc.Subscriptions()
	out := SubListResponse{APIVersion: APIVersion, Subscriptions: make([]SubInfoJSON, len(infos))}
	for i, in := range infos {
		out.Subscriptions[i] = SubInfoJSON{
			ID:            in.ID,
			Transport:     in.Delivery.Transport,
			MinIntervalMS: int(in.Delivery.MinInterval / time.Millisecond),
			OnChangeOnly:  in.Delivery.OnChangeOnly,
			Events:        in.Seq,
			LastVersion:   in.LastVersion,
			Dropped:       in.Dropped,
			Influencers:   in.Influencers,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSubscription answers DELETE /v1/subscriptions/{id}: the
// standing query is cancelled and its consumer — an open SSE stream or
// a future poll — receives the terminal bye event.
func (s *Server) handleSubscription(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use DELETE")
		return
	}
	id, ok := subID(w, r)
	if !ok {
		return
	}
	if !s.proc.Unsubscribe(id) {
		httpError(w, http.StatusNotFound, CodeUnknownSub, "id",
			fmt.Sprintf("no subscription %d", id))
		return
	}
	writeJSON(w, http.StatusOK, SubscribeResponse{APIVersion: APIVersion, SubscriptionID: id})
}

// handleSubEvents answers GET /v1/subscriptions/{id}/events: it drains
// every queued event of a poll-transport subscription, waiting up to
// "timeout_ms" (default 0: return immediately) for the first one when
// the queue is empty.
func (s *Server) handleSubEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "", "use GET")
		return
	}
	id, ok := subID(w, r)
	if !ok {
		return
	}
	sub, ok := s.proc.Subscription(id)
	if !ok {
		httpError(w, http.StatusNotFound, CodeUnknownSub, "id",
			fmt.Sprintf("no subscription %d", id))
		return
	}
	var timeout time.Duration
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, CodeInvalidBody, "timeout_ms",
				fmt.Sprintf("invalid timeout_ms %q", ms))
			return
		}
		timeout = time.Duration(n) * time.Millisecond
	}
	out := SubEventsResponse{APIVersion: APIVersion, Events: []SubEventJSON{}}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	// Block (bounded by the timeout) only while empty-handed; once at
	// least one event is in hand, drain whatever else is queued and
	// return.
	for {
		if len(out.Events) == 0 && timeout > 0 {
			select {
			case e, open := <-sub.Events():
				if !open {
					out.Closed = true
					writeJSON(w, http.StatusOK, out)
					return
				}
				out.Events = append(out.Events, eventJSON(id, e))
				continue
			case <-deadline.C:
			case <-r.Context().Done():
				return
			}
			break
		}
		select {
		case e, open := <-sub.Events():
			if !open {
				out.Closed = true
				writeJSON(w, http.StatusOK, out)
				return
			}
			out.Events = append(out.Events, eventJSON(id, e))
			continue
		default:
		}
		break
	}
	writeJSON(w, http.StatusOK, out)
}

// subID parses the {id} path segment, answering 400 on garbage.
func subID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidBody, "id",
			fmt.Sprintf("invalid subscription id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// eventJSON converts one registry event to its wire shape. Answer
// payloads reuse the one-shot QueryResponse envelope byte-for-byte.
func eventJSON(subID int64, e pnn.SubEvent) SubEventJSON {
	out := SubEventJSON{SubID: subID, Seq: e.Seq, Version: e.Version, Dropped: e.Dropped}
	if e.Bye {
		out.Event = "bye"
		return out
	}
	out.Event = "answer"
	if resp, ok := e.Payload.(pnn.Response); ok {
		qr := toJSON(resp)
		out.Response = &qr
		if resp.Stats.GroupSize > 0 {
			out.Sweep = &SubSweepJSON{
				GroupSize:    resp.Stats.GroupSize,
				Worlds:       resp.Stats.Worlds,
				WorldFloor:   resp.Stats.WorldFloor,
				BudgetReused: resp.Stats.BudgetReused,
			}
		}
	}
	return out
}
