open Clanbft_types

type t = {
  queue : Transaction.t Queue.t;
  capacity : int;
  mutable submitted : int;
  mutable rejected : int;
}

let create ?(capacity = 1_000_000) () =
  { queue = Queue.create (); capacity; submitted = 0; rejected = 0 }

let submit t txn =
  if Queue.length t.queue >= t.capacity then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    Queue.add txn t.queue;
    t.submitted <- t.submitted + 1;
    true
  end

let take t ~max =
  let count = min max (Queue.length t.queue) in
  let record = Block.new_record count in
  for i = 0 to count - 1 do
    let x = Queue.pop t.queue in
    Block.set_header record i ~id:x.id ~client:x.client
      ~created_at:x.created_at ~size:x.size
  done;
  record

let pending t = Queue.length t.queue
let submitted_total t = t.submitted
let rejected_total t = t.rejected

(* Heap census, headers included: this record (5 words) and the queue's
   (4), then per pending entry a 3-word queue cell and the 5-word
   transaction. *)
let approx_live_words t = 9 + (Queue.length t.queue * (3 + 5))
