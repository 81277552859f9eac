#include "overlay/system.hpp"

#include <unordered_set>
#include <vector>

namespace sel::overlay {

FlatSet<PeerId> PubSubSystem::subscribers_of(PeerId publisher) const {
  // neighbors() is CSR-ascending, so these inserts are appends.
  FlatSet<PeerId> subs;
  const graph::SocialGraph& g = overlay_->social();
  for (const graph::NodeId friend_id : g.neighbors(publisher)) {
    if (interest_ != nullptr && !interest_->interested(friend_id, publisher)) {
      continue;
    }
    subs.insert(friend_id);
  }
  return subs;
}

DisseminationTree PubSubSystem::build_tree(PeerId publisher) const {
  const FlatSet<PeerId> subs = subscribers_of(publisher);
  if (auto native = overlay_->native_tree(publisher, subs)) {
    return std::move(*native);
  }
  if (overlay_->capabilities().subscriber_first_tree) {
    return subscriber_first_tree(*overlay_, subs, publisher);
  }
  DisseminationTree tree(publisher);
  for (const PeerId s : subs) {
    const RouteResult r = overlay_->route(publisher, s);
    if (r.success) tree.add_path(r.path);
  }
  return tree;
}

DisseminationTree subscriber_first_tree(const Overlay& ov,
                                        const FlatSet<PeerId>& subscribers,
                                        PeerId publisher) {
  DisseminationTree tree(publisher);
  // Phase 1: flood over subscriber-to-subscriber links (plus the
  // publisher's own links). Every node on these branches is interested in
  // the message, so no relays are created.
  std::vector<PeerId> frontier{publisher};
  std::unordered_set<PeerId> reached{publisher};
  while (!frontier.empty()) {
    std::vector<PeerId> next;
    for (const PeerId u : frontier) {
      ov.for_each_neighbor(u, [&](PeerId v) {
        if (reached.contains(v)) return;
        if (!subscribers.contains(v)) return;
        if (!ov.peer_online(v)) return;
        reached.insert(v);
        tree.add_child(u, v);
        next.push_back(v);
      });
    }
    frontier = std::move(next);
  }
  // Phase 2: an unreached subscriber may hang one relay below the tree — a
  // non-subscriber connected to both a tree node and the subscriber (the
  // lookahead set L_p resolves exactly this pattern in 2 hops).
  for (const PeerId s : subscribers) {
    if (reached.contains(s)) continue;
    if (!ov.peer_online(s)) continue;
    PeerId via = kInvalidPeer;
    PeerId anchor = kInvalidPeer;
    ov.for_each_neighbor(s, [&](PeerId w) {
      if (via != kInvalidPeer) return;
      if (!ov.peer_online(w)) return;
      ov.for_each_neighbor(w, [&](PeerId t) {
        if (via != kInvalidPeer) return;
        if (tree.contains(t)) {
          via = w;
          anchor = t;
        }
      });
    });
    if (via != kInvalidPeer) {
      if (!tree.contains(via)) tree.add_child(anchor, via);
      tree.add_child(via, s);
      reached.insert(s);
    }
  }
  // Phase 3: anything still unreached gets a full overlay route from the
  // publisher; intermediate non-subscribers on those paths are the relays.
  for (const PeerId s : subscribers) {
    if (reached.contains(s)) continue;
    const RouteResult r = ov.route(publisher, s);
    if (r.success) tree.add_path(r.path);
  }
  return tree;
}

}  // namespace sel::overlay
