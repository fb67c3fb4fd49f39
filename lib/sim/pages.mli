(** Paged growable storage: the columns of the engine's heaps
    ({!Eheap}) and of the net's message slots.

    Below one page the storage is one array that doubles; past one page
    it grows by appending a page of {!size} entries and never copies an
    element, so a queue at its high-water mark leaves no copied-out
    arrays behind in the major heap. Entry [i] lives at
    [spine.(i lsr bits).(i land mask)] at every capacity. Readers index
    the spine in their own code, typed: a read through a function of
    this module would box a float under separate compilation. *)

val bits : int
(** [log2 size]. *)

val size : int
(** Entries per page (4096). *)

val mask : int
(** [size - 1]. *)

type 'a t = private {
  mutable spine : 'a array array;
      (** The pages; only the first [cap] entries are storage. Valid
          until the next {!grow} or {!release}. *)
  mutable cap : int;
  fill : 'a;  (** What every fresh slot holds. *)
}

val create : 'a -> 'a t
(** Empty storage holding no page; [fill] fills fresh slots. *)

val grow : 'a t -> first:int -> unit
(** Grow by one step: to [first] entries from empty ([first] a power of
    two at most one page), then by doubling up to one page, then by one
    page. Entries below the old capacity keep their values. *)

val release : 'a t -> unit
(** Drop every page: the storage is empty again. *)
