type link = {
  link_name : string;
  bw_gbs : float;
  latency_us : float;
}

let pcie_gen3 = { link_name = "PCIe Gen3 x16"; bw_gbs = 10.0; latency_us = 10.0 }

let time_s link ~bytes ~transactions =
  (float_of_int bytes /. (link.bw_gbs *. 1e9))
  +. (float_of_int transactions *. link.latency_us *. 1e-6)
