(** Grade-Cast — the three-round graded-broadcast primitive of Feldman
    and Micali used by [Coin-Gen] step 7.

    A designated dealer distributes a value over point-to-point channels;
    every player outputs a value and a confidence in [{0, 1, 2}]. With
    [n >= 3t + 1] the primitive guarantees (quoting the paper's summary):
    {ul
    {- if the dealer is honest, every honest player outputs the dealer's
       value with confidence 2;}
    {- "a confidence of 2 indicates that all other honest players have
       seen the value": if any honest player outputs [(v, 2)], every
       honest player outputs [v] with confidence [>= 1];}
    {- honest players with confidence [>= 1] agree on the value.}}

    Round structure: the dealer sends its value; everybody echoes what it
    received; everybody re-echoes any value supported by [n - t] first
    echoes; outputs are graded by the support of the second echo. *)

type 'v dealer_behavior =
  | Dealer_honest
  | Dealer_silent
  | Dealer_equivocate of (int -> 'v option)
      (** Value (or silence) per destination — the canonical Byzantine
          dealer. *)

type 'v follower_behavior =
  | Follower_honest
  | Follower_silent
  | Follower_fixed of 'v
      (** Echo this value to everyone in both echo rounds, regardless of
          what was received. *)
  | Follower_arbitrary of (round:int -> dst:int -> 'v option)
      (** Full per-round, per-destination control ([round] is 2 or 3). *)

type 'v outcome = { value : 'v option; confidence : int }

val best_supported : equal:('v -> 'v -> bool) -> 'v list -> 'v option * int
(** The echo tally behind every grade: the most-supported value in the
    list with its support count ([(None, 0)] for an empty list); among
    values of equal support the first in list order wins. An element
    equal to the best so far is not recounted, so a list whose elements
    all agree costs one comparison per element after the first full
    count. *)

val tally_slot :
  equal:('v -> 'v -> bool) ->
  'v option array array ->
  len:int ->
  slot:int ->
  int ref ->
  int
(** [tally_slot ~equal echoes ~len ~slot winner] is {!best_supported}
    over the present entries of slot [slot] in the first [len] echo
    vectors, in order, computed in place with no list built: it returns
    the support and leaves in [winner] the index of the vector whose
    entry won ([-1] when every entry is [None]), so the winning value is
    [echoes.(!winner).(slot)] itself, not a copy. {!run_all} grades
    every slot of every round with it. *)

val run :
  ?dealer_behavior:'v dealer_behavior ->
  ?follower_behavior:(int -> 'v follower_behavior) ->
  equal:('v -> 'v -> bool) ->
  byte_size:('v -> int) ->
  n:int ->
  t:int ->
  dealer:int ->
  value:'v ->
  unit ->
  'v outcome array
(** One grade-cast execution on a fresh synchronous network; the result
    is indexed by player (entries of faulty players are computed but
    meaningless). Ticks {!Metrics.tick_gradecast} once, plus the usual
    message/round accounting. *)

val run_all :
  ?dealer_behavior:(int -> 'v dealer_behavior) ->
  ?follower_behavior:(int -> 'v follower_behavior) ->
  equal:('v -> 'v -> bool) ->
  byte_size:('v -> int) ->
  n:int ->
  t:int ->
  values:(int -> 'v) ->
  unit ->
  'v outcome array array
(** All [n] players grade-cast simultaneously, each the dealer of its
    own [values i], sharing the three rounds — the parallel composition
    [Coin-Gen] step 7 uses. [result.(receiver).(dealer)] is what
    [receiver] outputs for [dealer]'s cast. A follower behaviour applies
    uniformly across all [n] dealer slots (its echo vector repeats the
    lie per slot). Ticks [n] grade-casts but only 3 rounds. Each round
    is read in place ({!Transport.Inbox}) and each slot graded with
    {!tally_slot}, so no echo list is built. *)
