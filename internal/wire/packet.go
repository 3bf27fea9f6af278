package wire

import (
	"errors"
	"hash/crc32"
)

// Datagram packet framing for the UDP transport. One framed message
// (the output of AppendRequest/AppendResponse) is carried by one or
// more packets, each individually checksummed so a corrupted datagram
// is dropped in isolation:
//
//	offset 0..1   packet magic "qp" (0x71 0x70) — distinct from the
//	              message magic so a stray message frame is never
//	              mistaken for a packet
//	offset 2      packet-layer version (1)
//	offset 3      packet type (PktData / PktResp / PktAck)
//	offset 4      flags (bit 0: an ack is acking a response)
//	offset 5..12  message ID, uint64 LE — the retransmit/dedup key
//	offset 13..14 fragment index, uint16 LE
//	offset 15..16 fragment count, uint16 LE
//	offset 17..   payload (one message slice; empty for acks)
//	last 4 bytes  CRC32C of everything preceding
//
// The message ID is transport-scoped (per client socket), not the
// codec's request ID: the JSON codec has no ID at all, and the packet
// layer must work for both.
const (
	pktMagic0  = 0x71 // 'q'
	pktMagic1  = 0x70 // 'p'
	pktVersion = 1

	pktOffType  = 3
	pktOffFlags = 4
	pktOffMsgID = 5
	pktOffFrag  = 13

	// PacketHeaderSize is the fixed datagram header length.
	PacketHeaderSize = 17
	// PacketOverhead is header + CRC trailer: the per-datagram tax
	// subtracted from the MTU to get usable payload.
	PacketOverhead = PacketHeaderSize + crcSize

	// MinMTU is the smallest configurable MTU: enough for the
	// overhead plus a few dozen payload bytes so every message makes
	// progress. MaxMTU is the absolute UDP datagram payload ceiling.
	MinMTU = 64
	MaxMTU = 65507
)

// Packet types.
const (
	// PktData carries a request-message fragment.
	PktData byte = 1
	// PktResp carries a response-message fragment.
	PktResp byte = 2
	// PktAck acknowledges complete receipt of a message (no payload).
	PktAck byte = 3
)

// AckOfResponse is the packet flag a client sets when acking a
// response, letting the server drop its dedup-cached reply early.
const AckOfResponse byte = 1 << 0

// Packet is one parsed datagram. Payload aliases the parse input —
// copy before the receive buffer recycles.
type Packet struct {
	Type      byte
	Flags     byte
	MsgID     uint64
	FragIdx   uint16
	FragCount uint16
	Payload   []byte
}

// Packet-layer errors (sentinels; the receive path drops bad
// datagrams without formatting anything).
var (
	ErrPacketMagic = errors.New("wire: not a datagram packet")
	ErrPacketShort = errors.New("wire: datagram too short")
	ErrPacketFrag  = errors.New("wire: inconsistent fragment numbering")
)

// AppendPacket appends one framed datagram to dst, reusing capacity.
func AppendPacket(dst []byte, p *Packet) []byte {
	start := len(dst)
	dst = append(dst, pktMagic0, pktMagic1, pktVersion, p.Type, p.Flags,
		byte(p.MsgID), byte(p.MsgID>>8), byte(p.MsgID>>16), byte(p.MsgID>>24),
		byte(p.MsgID>>32), byte(p.MsgID>>40), byte(p.MsgID>>48), byte(p.MsgID>>56),
		byte(p.FragIdx), byte(p.FragIdx>>8),
		byte(p.FragCount), byte(p.FragCount>>8))
	dst = append(dst, p.Payload...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	dst = append(dst, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	return dst
}

// ParsePacket validates one received datagram and fills p. Payload
// aliases data.
func ParsePacket(data []byte, p *Packet) error {
	if len(data) < PacketOverhead {
		return ErrPacketShort
	}
	if data[0] != pktMagic0 || data[1] != pktMagic1 {
		return ErrPacketMagic
	}
	if data[2] != pktVersion {
		return ErrVersion
	}
	payloadEnd := len(data) - crcSize
	want := uint32(data[payloadEnd]) | uint32(data[payloadEnd+1])<<8 |
		uint32(data[payloadEnd+2])<<16 | uint32(data[payloadEnd+3])<<24
	if crc32.Checksum(data[:payloadEnd], castagnoli) != want {
		return ErrCRC
	}
	p.Type = data[pktOffType]
	p.Flags = data[pktOffFlags]
	var id uint64
	for i := 0; i < 8; i++ {
		id |= uint64(data[pktOffMsgID+i]) << (8 * i)
	}
	p.MsgID = id
	p.FragIdx = uint16(data[pktOffFrag]) | uint16(data[pktOffFrag+1])<<8
	p.FragCount = uint16(data[pktOffFrag+2]) | uint16(data[pktOffFrag+3])<<8
	if p.FragCount == 0 || p.FragIdx >= p.FragCount {
		if p.Type != PktAck { // acks carry no fragment numbering
			return ErrPacketFrag
		}
	}
	p.Payload = data[PacketHeaderSize:payloadEnd]
	return nil
}

// Fragments returns how many datagrams a message of msgLen bytes
// needs at the given MTU, or 0 when the message cannot be carried
// (too many fragments for the uint16 numbering).
func Fragments(msgLen, mtu int) int {
	usable := mtu - PacketOverhead
	if usable <= 0 {
		return 0
	}
	if msgLen == 0 {
		return 1
	}
	n := (msgLen + usable - 1) / usable
	if n > 0xFFFF {
		return 0
	}
	return n
}
