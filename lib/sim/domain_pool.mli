(** Deterministic fork/join over OCaml 5 domains.

    [map ~domains tasks] runs every task and returns their results in
    task order. At most [domains] host domains run at once (the calling
    domain participates, so [domains] is the total parallelism); with
    [domains <= 1] the tasks run inline, sequentially, in order — the
    zero-overhead baseline the parallel path must match byte-for-byte.

    The contract that makes host parallelism invisible to simulated
    results:

    - the result array is indexed by task, never by completion order;
    - if any task raises, [map] re-raises the exception of the {e first
      failing task in task order} after every domain has been joined, so
      which error escapes does not depend on host scheduling;
    - tasks must not share mutable state (each should own its machine /
      campaign cell outright) — the pool adds no locking beyond the
      work-claim cursor.

    Used by the bench harness's [--domains] replica scaling and by
    [Stramash_harness.Campaign.soak], the one soak loop that spreads the
    chaos, scrub and serve campaigns' cells over host domains. *)

val map : domains:int -> (unit -> 'a) array -> 'a array
