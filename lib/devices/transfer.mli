(** Host-accelerator transfer model shared by PSA decisions.

    The informed strategy's first test (Fig. 3) compares
    [T_data_transfer] against [T_cpu]; this module provides the estimate
    for an arbitrary link before a target is chosen. *)

type link = {
  link_name : string;
  bw_gbs : float;
  latency_us : float;
}

val pcie_gen3 : link
(** A generic PCIe Gen3 x16 accelerator link, used target-independently. *)

val time_s : link -> bytes:int -> transactions:int -> float
(** [bytes / bandwidth + transactions * latency]. *)
