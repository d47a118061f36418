type timing = { due : float; started : float; finished : float }

let latency t = t.finished -. t.due
let late t = t.started -. t.due

let spin_until ~clock until =
  while clock () < until do
    Domain.cpu_relax ()
  done

let run ~clock ~idle ~due ~handle n =
  let t0 = clock () in
  Array.init n (fun i ->
      let due = t0 +. due i in
      while clock () < due do
        idle due
      done;
      let started = clock () in
      handle i;
      { due; started; finished = clock () })

let queue_latencies ~due ~service =
  let free = ref Float.neg_infinity in
  Array.mapi
    (fun i d ->
      let finish = Float.max d !free +. service.(i) in
      free := finish;
      finish -. d)
    due
