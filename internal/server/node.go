package server

// The shard RPC endpoints of a cluster node — tsserve's node role
// serves these. The handler implementation lives in internal/cluster
// (cluster.NodeRPC) so the client and server halves of the wire
// protocol share one package and cannot drift; this is the serving
// surface. Every /shard/* body is a binary frame (cluster.Request in,
// cluster.Answer out, Content-Type cluster.FrameContentType; any other
// type answers 415), and refusals are JSON {"error": ...}:
//
//	GET  /healthz       → cluster.NodeHealth JSON (role "node", assignment, frame version)
//	POST /shard/search  → matches + stats
//	POST /shard/topk    → matches (dist set)
//	POST /shard/prefix  → matches (tree half only)
//	POST /shard/approx  → matches + stats
//
// Like the engine handler, a NodeHandler supports BeginDrain: during
// graceful shutdown new queries get 503 while /healthz keeps answering.

import "twinsearch/internal/cluster"

// NodeHandler serves one cluster node's shard RPC.
type NodeHandler = cluster.NodeRPC

// NewNode wraps a cluster node in its RPC handler.
func NewNode(n *cluster.Node) *NodeHandler { return cluster.NewNodeRPC(n) }
