// Private-cloud scenario (§3.4.2): coarse-grained resource partitioning.
//
// Two departments each receive a personal Toolstack shard with the driver
// domains delegated to it and a hard memory quota. Each administers its own
// guests; the hypervisor's parent-toolstack audit (§5.6) blocks one
// department from touching the other's VMs, and the quota caps what each
// can consume.
#include <cstdio>

#include "src/base/log.h"
#include "src/core/xoar_platform.h"

using namespace xoar;

int main() {
  Logger::Get().set_level(LogLevel::kWarning);

  XoarPlatform platform;  // engineering gets the boot-time toolstack
  if (!platform.Boot().ok()) {
    return 1;
  }

  // The operator carves out a second management domain for "finance" with
  // a 2 GiB quota.
  auto finance_index = platform.AddToolstack(/*memory_quota_mb=*/2048);
  if (!finance_index.ok()) {
    std::fprintf(stderr, "AddToolstack: %s\n",
                 finance_index.status().ToString().c_str());
    return 1;
  }
  platform.Settle();
  Toolstack& engineering = platform.toolstack(0);
  Toolstack& finance = platform.toolstack(*finance_index);
  engineering.set_memory_quota_mb(2048);
  std::printf("engineering toolstack: dom%u  | finance toolstack: dom%u\n",
              engineering.self().value(), finance.self().value());

  // Each department manages its own fleet.
  DomainId eng_ci = *engineering.CreateGuest(
      GuestSpec{.name = "eng-ci", .memory_mb = 1024});
  DomainId fin_ledger = *finance.CreateGuest(
      GuestSpec{.name = "fin-ledger", .memory_mb = 1024});
  platform.Settle();
  std::printf("eng-ci = dom%u (parent dom%u), fin-ledger = dom%u (parent "
              "dom%u)\n",
              eng_ci.value(),
              platform.hv().domain(eng_ci)->parent_toolstack().value(),
              fin_ledger.value(),
              platform.hv().domain(fin_ledger)->parent_toolstack().value());

  // Department autonomy: engineering manages its own guest freely...
  Status own = engineering.PauseGuest(eng_ci);
  std::printf("\nengineering pauses its own CI runner: %s\n",
              own.ToString().c_str());
  (void)engineering.UnpauseGuest(eng_ci);

  // ...but the hypervisor refuses cross-department management outright.
  Status cross = platform.hv().PauseDomain(engineering.self(), fin_ledger);
  std::printf("engineering tries to pause finance's ledger: %s\n",
              cross.ToString().c_str());

  // Quotas bound each slice: finance cannot blow past its 2 GiB.
  auto too_big = finance.CreateGuest(
      GuestSpec{.name = "fin-warehouse", .memory_mb = 1536});
  std::printf("finance requests another 1.5 GiB guest: %s\n",
              too_big.ok() ? "created (unexpected!)"
                           : too_big.status().ToString().c_str());

  // Delegation is explicit and auditable: the driver domains list exactly
  // which toolstacks may hand them to guests.
  const Domain* netback =
      platform.hv().domain(platform.shard_domain(ShardClass::kNetBack));
  std::printf("\nNetBack (dom%u) delegated to toolstacks:",
              netback->id().value());
  for (DomainId toolstack : netback->delegated_toolstacks()) {
    std::printf(" dom%u", toolstack.value());
  }
  std::printf("\n");

  std::printf("\nmemory in use: engineering %llu MB / 2048 MB, finance "
              "%llu MB / 2048 MB\n",
              (unsigned long long)engineering.guest_memory_in_use_mb(),
              (unsigned long long)finance.guest_memory_in_use_mb());
  return 0;
}
