// Gigabit NIC model (the paper's Tigon-3).
//
// A transmit queue serialized onto a fixed-rate link. Transmissions complete
// after queueing delay plus wire time; received frames are injected by the
// network fabric (src/net) and handed to the registered rx handler — in a
// running platform that handler is NetBack's interrupt path.
#ifndef XOAR_SRC_DEV_NIC_H_
#define XOAR_SRC_DEV_NIC_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/base/units.h"
#include "src/hv/pci_slot.h"
#include "src/sim/simulator.h"

namespace xoar {

class NicDevice {
 public:
  using RxHandler = std::function<void(std::uint32_t bytes)>;
  using TxDone = std::function<void()>;

  NicDevice(Simulator* sim, PciSlot slot, double link_bits_per_second)
      : sim_(sim), slot_(slot), link_rate_(link_bits_per_second) {}

  PciSlot slot() const { return slot_; }
  double link_rate() const { return link_rate_; }

  bool link_up() const { return link_up_; }
  void set_link_up(bool up) { link_up_ = up; }

  // Queues `bytes` for transmission; `done` fires when the frame has left
  // the wire. Dropped (done never fires) if the link is down.
  void Transmit(std::uint32_t bytes, TxDone done);

  // Frame arrival from the fabric. Dropped if no handler (driver rebooting).
  void DeliverFrame(std::uint32_t bytes);

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }
  void clear_rx_handler() { rx_handler_ = nullptr; }

  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  std::uint64_t tx_frames() const { return tx_frames_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t dropped_frames() const { return dropped_frames_; }

 private:
  Simulator* sim_;
  PciSlot slot_;
  double link_rate_;
  bool link_up_ = true;
  SimTime tx_busy_until_ = 0;
  RxHandler rx_handler_;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t tx_frames_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t dropped_frames_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_DEV_NIC_H_
