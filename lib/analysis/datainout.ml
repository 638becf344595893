type t = {
  dio_kernel : string;
  dio_invocations : int;
  dio_bytes_in : int;
  dio_bytes_out : int;
  dio_traffic : Machine.array_traffic list;
  dio_region : Machine.region_stats;
}

let of_region_stats ~kernel (rs : Machine.region_stats) =
  {
    dio_kernel = kernel;
    dio_invocations = rs.rs_invocations;
    dio_bytes_in = rs.rs_bytes_in;
    dio_bytes_out = rs.rs_bytes_out;
    dio_traffic = rs.rs_traffic;
    dio_region = rs;
  }

let analyse ?config p ~kernel =
  let config = Memo.analysis_config ?config ~kernel () in
  let result = Memo.run ~config p in
  match Machine.find_region_stats result (Machine.Rfunc kernel) with
  | Some rs -> of_region_stats ~kernel rs
  | None ->
    of_region_stats ~kernel
      {
        Machine.rs_invocations = 0;
        rs_counters = Counters.create ();
        rs_traffic = [];
        rs_bytes_in = 0;
        rs_bytes_out = 0;
      }

let transfer_time t ~bandwidth_bytes_per_s ~latency_s =
  (float_of_int (t.dio_bytes_in + t.dio_bytes_out) /. bandwidth_bytes_per_s)
  +. (float_of_int t.dio_invocations *. latency_s)
