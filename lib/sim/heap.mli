(** A classic array-backed binary min-heap — the expiry queue of the
    replay cache (which is what bought the cache its O(log n) inserts; see
    the [replay_cache_stress] test for the budget it must meet). The
    engine keeps its own specialised event queue ({!Engine}). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty heap ordered by [cmp] (negative means "closer to the top"). *)

val push : 'a t -> 'a -> unit
(** O(log n): append and sift up. The backing array doubles as needed,
    so pushes cost amortised O(1) space each. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum, or [None] on an empty heap. O(log n):
    swap the last leaf to the root and sift down. *)

val peek : 'a t -> 'a option
(** The minimum without removing it, or [None] on an empty heap. O(1). *)

val size : 'a t -> int
(** Live elements (not the backing-array capacity). O(1). *)

val is_empty : 'a t -> bool
(** [size t = 0]. *)
