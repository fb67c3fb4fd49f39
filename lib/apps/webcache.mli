(** Cooperative web cache on Pastry, after Squirrel (Iyer et al.) — the
    long-running application of §5.7 / Fig. 14.

    Every URL has a {e home node}: the Pastry owner of the URL's hash. A
    node proxies a request by routing to the home node, which serves the
    object from its cache or fetches it from the (simulated) origin server
    on a miss. Caches are LRU-bounded and entries expire after a TTL
    (paper: 100 entries per node, 120 s). *)

type config = {
  max_entries : int; (** per node (paper: 100) *)
  ttl : float; (** seconds before an entry is stale (paper: 120) *)
  origin_delay_mean : float; (** origin fetch time, exponential (paper: 1–2 s) *)
  object_size : int; (** bytes of a fetched object *)
  rpc_timeout : float;
  serve_cost : float;
      (** home-node service time per request, seconds (default 0 — the
          original behaviour) *)
  coalesce : bool;
      (** singleflight origin fetches: concurrent missers of one url wait
          on the first fetch instead of each hitting the origin *)
  admission : bool; (** token-bucket shedding at the home node *)
  token_rate : float; (** sustained accepts per second (default 2000) *)
  token_burst : float; (** bucket depth (default 64) *)
}

val default_config : config

type t

val create : ?config:config -> Pastry.node -> t

val get : t -> string -> (string * [ `Hit | `Miss | `Failed | `Shed ] * float)
(** [get t url] proxies one request: returns the object (empty on
    [`Failed] and [`Shed]), whether the home node had it cached, and the
    experienced delay in simulated seconds. [`Shed] is an admission-control
    fast reject from a healthy but overloaded home node. Blocking. *)

(** Counters for the figure series. *)

val requests_served : t -> int
(** Requests this node served as a home node. *)

val home_misses : t -> int
val cached_entries : t -> int

val origin_fetches : t -> int
(** Actual origin-server fetches (with [coalesce] this stays at or below
    {!home_misses}: coalesced missers share one fetch). *)

val stale_served : t -> int
(** Cache hits served past their TTL — 0 by construction; the check suite
    pins it. *)

val shed_count : t -> int
(** Requests fast-rejected by admission control at this home node. *)

val reply : (string * bool) option Splay_runtime.Codec.ty
(** The home node's answer to a proxied get: the object and whether its
    cache held it, as [{"v": value, "hit": hit}], or [None] — the text
    [false] — when it shed the request. *)
