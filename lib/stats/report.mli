(** Plain-text figure/table renderer for the benchmark harness.

    Each experiment prints the same rows/series the paper's figures plot;
    these helpers keep the output aligned and uniform so EXPERIMENTS.md can
    quote it directly. *)

val section : string -> unit
(** Banner for one experiment (figure/table id + caption). *)

val kv : string -> string -> unit
(** One "key: value" fact line. *)

val kvf : string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant of {!kv}. *)

val table : header:string list -> string list list -> unit
(** Aligned columns; header underlined. Ragged rows are padded. *)

val float_cell : ?decimals:int -> float -> string
(** Fixed-point rendering, default 2 decimals. *)

val percentile_header : float list -> string list
(** ["p5"; "p25"; ...] labels for a percentile table. *)

val bar : float -> max:float -> width:int -> string
(** ASCII bar of length proportional to [v/max], for histogram rows. *)
